package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// metricDef is one printed metric. The tables below and BENCHMARK.json at
// the repository root must agree name for name (TestMetricsMatchBenchmarkJSON).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: tolerated relative worsening
}

// endToEnd metrics are printed with -trace 0, under the same names on every
// workload. All are non-zero on a healthy run. The time metrics' bounds are
// as wide as allowed: on a shared two-CPU host the same run drifts by a
// fifth between quiet and busy minutes. Allocation and live heap are counts
// that repeat to within two percent.
var endToEnd = []metricDef{
	{"tuples_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_tuple", "ms", "lower", 0.25},
	{"alloc_kb_per_tuple", "KiB", "lower", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.1},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer metrics are printed with -trace 1. A metric of a layer the
// workload does not cross (fleet.* off the router path) reads 0; a layer
// whose replay did not reproduce the served bytes reads -1 (unmeasured).
var perLayer = []metricDef{
	{"client.rtt_ms", "ms", "lower", 0},
	{"client.req_kb", "KiB", "lower", 0},
	{"client.resp_kb", "KiB", "lower", 0},
	{"hop.ms", "ms", "lower", 0},
	{"server.handler_ms", "ms", "lower", 0},
	{"server.self_ms_per_tuple", "ms", "lower", 0},
	{"server.refused", "count", "lower", 0},
	{"fleet.handler_ms", "ms", "lower", 0},
	{"fleet.self_ms", "ms", "lower", 0},
	{"fleet.subreqs_per_query", "count", "lower", 0},
	{"fleet.retries", "count", "lower", 0},
	{"fleet.partials_kb_per_query", "KiB", "lower", 0},
	{"fleet.shard_skew_ms", "ms", "lower", 0},
	{"query.dropped_frac", "ratio", "higher", 0},
	{"query.answer_rows", "count", "lower", 0},
	{"core.eval_ms_per_tuple", "ms", "lower", 0},
	{"core.samples_per_tuple", "count", "lower", 0},
	{"core.samples_inferred_frac", "ratio", "higher", 0},
	{"core.local_points_mean", "count", "lower", 0},
	{"core.points_added_per_tuple", "count", "lower", 0},
	{"core.retrains_per_1k", "count", "lower", 0},
	{"core.training_points", "count", "lower", 0},
	{"core.bound_mean", "ratio", "lower", 0},
	{"core.met_budget_frac", "ratio", "higher", 0},
	{"core.audit_violation_frac", "ratio", "lower", 0},
	{"gp.predict_ms_per_tuple", "ms", "lower", 0},
	{"gp.points", "count", "lower", 0},
	{"udf.calls_per_tuple", "count", "lower", 0},
	{"udf.ms_per_call", "ms", "lower", 0},
	{"udf.share", "ratio", "lower", 0},
	{"go.gc_cpu_frac", "ratio", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

// unmeasured marks a layer metric whose replay could not be verified.
const unmeasured = -1

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render builds the result line from the measured values, requiring a value
// for every metric of the table and nothing else.
func render(defs []metricDef, vals map[string]float64, attempted, failed int, correct bool) ([]byte, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("%d values measured for %d metrics", len(vals), len(defs))
	}
	return json.Marshal(r)
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest of the candidate percentiles that has
// at least minBeyond of n samples beyond it, or 0 when even the median has
// fewer.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90, 50} {
		if n-rank(p, n) >= minBeyond {
			return p
		}
	}
	return 0
}

// rank is the 1-based nearest-rank position of percentile p among n samples.
func rank(p float64, n int) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9% of 10000 is 9990, not 9991
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank percentile p of samples (sorted in
// place).
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	return samples[rank(p, len(samples))-1]
}

// median of a copy of xs.
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 50)
}

// interval is a [Start, End) time span.
type interval struct{ Start, End time.Time }

// selfTime is the duration of parent not covered by the union of the child
// intervals (each clipped to the parent).
func selfTime(parent interval, children []interval) time.Duration {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.Start.Before(parent.Start) {
			c.Start = parent.Start
		}
		if c.End.After(parent.End) {
			c.End = parent.End
		}
		if c.End.After(c.Start) {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
	var covered time.Duration
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case !c.Start.After(cur.End):
			if c.End.After(cur.End) {
				cur.End = c.End
			}
		default:
			covered += cur.End.Sub(cur.Start)
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.End.Sub(cur.Start)
	}
	return parent.End.Sub(parent.Start) - covered
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 90}, {100, 90}, {99, 50}, {20, 50}, {19, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && c.n-rank(p, c.n) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond", c.n, p, c.n-rank(p, c.n))
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	iv := func(a, b int) interval {
		return interval{t0.Add(time.Duration(a) * time.Millisecond), t0.Add(time.Duration(b) * time.Millisecond)}
	}
	parent := iv(0, 100)
	for _, c := range []struct {
		name     string
		children []interval
		want     int
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{iv(10, 20), iv(50, 70)}, 70},
		{"overlapping union counted once", []interval{iv(10, 30), iv(20, 40), iv(60, 70)}, 60},
		{"nested", []interval{iv(10, 80), iv(20, 30)}, 30},
		{"clipped to the parent", []interval{iv(-10, 10), iv(90, 120)}, 80},
		{"outside the parent", []interval{iv(150, 160)}, 100},
		{"covering", []interval{iv(-5, 105)}, 0},
	} {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self %v, want %dms", c.name, got, c.want)
		}
	}
}

// requestBytes marshals every request body a workload generates from seed.
func requestBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	cat := newCatalog()
	var out []any
	for _, in := range append(coldPlan(seed, 0, cat), coldPlan(seed, 1, cat)...) {
		out = append(out, in.register(), in.reqs)
	}
	insts := frozenInstances(cat)
	for _, in := range insts {
		out = append(out, in.register())
	}
	for k := 0; k < zipfClient; k++ {
		g := newFrozenGen(seed, k, cat, insts)
		for i := 0; i < 200; i++ {
			key, _, req := g.next()
			out = append(out, key, req)
		}
	}
	names := []string{"vol0", "vol1", "vol2"}
	for i, in := range scatterInstances(names, cat) {
		out = append(out, i, in.register())
	}
	rows, pred := scatterRelation(seed, cat, names)
	out = append(out, scatterPlan(rows, pred, mix64(seed+1, 0)))
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameRequests(t *testing.T) {
	a, b := requestBytes(t, 7), requestBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different request bytes")
	}
	if bytes.Equal(a, requestBytes(t, 8)) {
		t.Fatal("different seeds generated identical request bytes")
	}
}

func TestFrozenRepeatsAreIdentical(t *testing.T) {
	cat := newCatalog()
	insts := frozenInstances(cat)
	g := newFrozenGen(3, 0, cat, insts)
	seen := map[int][]byte{}
	repeats := 0
	for i := 0; i < 2000; i++ {
		key, _, req := g.next()
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[key]; ok {
			repeats++
			if !bytes.Equal(prev, b) {
				t.Fatalf("key %d: repeated request differs", key)
			}
		}
		seen[key] = b
	}
	if repeats < 1000 {
		t.Fatalf("only %d of 2000 Zipf draws repeat a key", repeats)
	}
}

func TestBinomialBound(t *testing.T) {
	tail := func(n int, p float64, k int) float64 { // P[X > k]
		var cdf float64
		for i := 0; i <= k; i++ {
			cdf += binom(n, i) * math.Pow(p, float64(i)) * math.Pow(1-p, float64(n-i))
		}
		return 1 - cdf
	}
	for _, c := range []struct {
		n int
		p float64
	}{{32, 0.1}, {64, 0.05}, {10, 0.5}} {
		k := binomialBound(c.n, c.p, 1e-3)
		if tail(c.n, c.p, k) > 1e-3 || (k > 0 && tail(c.n, c.p, k-1) <= 1e-3) {
			t.Errorf("binomialBound(%d, %g) = %d is not the smallest k with P[X > k] ≤ 1e-3", c.n, c.p, k)
		}
	}
	if n := dkwSize(0.1, 0.05); n != 185 {
		t.Errorf("dkwSize(0.1, 0.05) = %d, want 185", n)
	}
}

func binom(n, k int) float64 {
	r := 1.0
	for i := 1; i <= k; i++ {
		r *= float64(n-k+i) / float64(i)
	}
	return r
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []metricDef
	for _, m := range bj.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range bj.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better, 0})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json:\n%v\nprinted by the benchmark:\n%v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json:\n%v\nprinted by the benchmark:\n%v", layer, perLayer)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if got, ok := workloads[w.Name]; !ok || got.why != w.Why {
			t.Errorf("workload %s: why %q in BENCHMARK.json, %q in the benchmark", w.Name, w.Why, got.why)
		}
	}
	for _, m := range endToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s, lower better")
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

func TestRenderNeedsEveryMetric(t *testing.T) {
	vals := map[string]float64{}
	for i, d := range endToEnd {
		vals[d.Name] = float64(i + 1)
	}
	line, err := render(endToEnd, vals, 10, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var r result
	if err := json.Unmarshal(line, &r); err != nil || len(r.Metrics) != len(endToEnd) || r.Metrics["setup_s"].Unit != "s" {
		t.Fatalf("rendered %s (%v)", line, err)
	}
	delete(vals, "p50_ms")
	if _, err := render(endToEnd, vals, 10, 0, true); err == nil {
		t.Error("a missing metric rendered")
	}
	vals["p50_ms"] = math.NaN()
	if _, err := render(endToEnd, vals, 10, 0, true); err == nil {
		t.Error("a NaN metric rendered")
	}
}

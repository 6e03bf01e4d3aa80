package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// counters is a reading of the process-wide clocks and counters that a
// timed phase is charged with.
type counters struct {
	wall     time.Time
	cpu      time.Duration // user + sys, getrusage(RUSAGE_SELF)
	alloc    uint64        // runtime.MemStats.TotalAlloc
	gcCPU    float64       // runtime/metrics GC CPU seconds
	allCPU   float64       // runtime/metrics total CPU seconds
	gcCycles uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readCounters() counters {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid buffer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(runtimeSamples)
	return counters{
		wall:     time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		gcCPU:    runtimeSamples[0].Value.Float64(),
		allCPU:   runtimeSamples[1].Value.Float64(),
		gcCycles: runtimeSamples[2].Value.Uint64(),
	}
}

// phase accumulates the measurements of one timed phase, which may be made
// of several disjoint intervals (learn_cold's rounds).
type phase struct {
	lat       []float64 // op round trips, ms
	tuples    int
	attempted int
	failed    int

	wall, cpu       time.Duration
	alloc           uint64
	gcCPU, allCPU   float64
	gcCycles        uint64
	udfCalls        int64 // /v1/stats deltas
	retrains        int64
	bounds          []float64 // served bound per evaluated tuple
	metBudget       int
	dropped, answer int // query_scatter: dropped rows, answer rows
}

// charge adds the interval between two counter readings.
func (p *phase) charge(a, b counters) {
	p.wall += b.wall.Sub(a.wall)
	p.cpu += b.cpu - a.cpu
	p.alloc += b.alloc - a.alloc
	p.gcCPU += b.gcCPU - a.gcCPU
	p.allCPU += b.allCPU - a.allCPU
	p.gcCycles += b.gcCycles - a.gcCycles
}

// endToEnd computes the end-to-end metrics of the phase. tail_ms is the
// workload's declared tail percentile, lowered to the highest one the
// sample supports when the phase was too short (traced runs only).
func (p *phase) endToEnd(tailPct float64) map[string]float64 {
	t := float64(p.tuples)
	if sup := tailPercentile(len(p.lat)); sup < tailPct {
		tailPct = max(sup, 50)
	}
	fmt.Printf("# tail_ms is p%g of %d ops\n", tailPct, len(p.lat))
	return map[string]float64{
		"tuples_per_s":       t / p.wall.Seconds(),
		"p50_ms":             percentile(p.lat, 50),
		"tail_ms":            percentile(p.lat, tailPct),
		"cpu_ms_per_tuple":   ms(p.cpu) / t,
		"alloc_kb_per_tuple": float64(p.alloc) / 1024 / t,
	}
}

// liveHeap returns HeapAlloc after two forced collections (the second
// empties sync.Pool victim caches).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// hostRefMS times a fixed CPU loop that uses no repository code: the median
// of five 96×96 float64 matrix products. It tracks the host's speed, not
// the program's, so slow episodes of the machine can be told apart from
// slow programs.
func hostRefMS() float64 {
	const n = 96
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) * 0.5
		b[i] = float64(i%5) * 0.25
	}
	var times []float64
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for k := 0; k < 8; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var s float64
					for l := 0; l < n; l++ {
						s += a[i*n+l] * b[l*n+j]
					}
					c[i*n+j] = s
				}
			}
		}
		times = append(times, ms(time.Since(start)))
	}
	if c[n*n-1] < 0 { // keeps the products live
		panic("unreachable")
	}
	return median(times)
}

// noteServed adds served results' bound metadata to the phase.
func (p *phase) noteServed(items []served) {
	for _, it := range items {
		p.bounds = append(p.bounds, it.res.Bound)
		if it.res.MetBudget {
			p.metBudget++
		}
	}
}

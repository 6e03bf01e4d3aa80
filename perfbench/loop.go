package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// opts are the command-line settings of one run.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spansDir string
}

// phaseLen is how long one timed phase runs. A traced run splits its time
// between an untraced and a traced phase, so it costs about as much as an
// untraced run.
func (o opts) phaseLen() time.Duration {
	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	return d
}

// minOps is the op count a phase must reach before it may stop: the sample
// the tail percentile needs, in runs that report it.
func (o opts) minOps(n int) int {
	if o.trace {
		return 1
	}
	return n
}

// setupRuns is how many times a run sets its stack up; setup_s is the
// median.
const setupRuns = 3

// outcome is everything one run measured and checked.
type outcome struct {
	e2e, layer        map[string]float64
	attempted, failed int
	problems          []string
}

// check counts one output check, failed when ok is false.
func (oc *outcome) check(ok bool, format string, args ...any) {
	oc.attempted++
	if !ok {
		oc.failed++
		oc.problem(format, args...)
	}
}

func (oc *outcome) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	oc.problems = append(oc.problems, msg)
	fmt.Fprintln(os.Stderr, "check failed:", msg)
}

// addOps charges a phase's op counts and failures to the outcome.
func (oc *outcome) addOps(p *phase) {
	oc.attempted += p.attempted
	oc.failed += p.failed
}

// closedLoop runs n clients, each sending its next op only after the
// previous one returned, until stop(k, i) says client k is done before its
// i-th op. Op latencies, tuple counts and failures are added to p; the
// first few failures are printed.
func closedLoop(p *phase, n int, stop func(k, i int) bool, op func(k, i int) (tuples int, err error)) {
	type clientStats struct {
		lat            []float64
		tuples, failed int
	}
	stats := make([]clientStats, n)
	var printed atomic.Int32
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			cs := &stats[k]
			for i := 0; !stop(k, i); i++ {
				start := time.Now()
				tuples, err := op(k, i)
				if err != nil {
					cs.failed++
					if printed.Add(1) <= 5 {
						fmt.Fprintf(os.Stderr, "op failed: client %d op %d: %v\n", k, i, err)
					}
					continue
				}
				cs.lat = append(cs.lat, ms(time.Since(start)))
				cs.tuples += tuples
			}
		}(k)
	}
	wg.Wait()
	for _, cs := range stats {
		p.lat = append(p.lat, cs.lat...)
		p.tuples += cs.tuples
		p.attempted += len(cs.lat) + cs.failed
		p.failed += cs.failed
	}
}

// untilDeadline stops every client once d has passed and at least minOps
// ops were started in total, so the tail percentile always has its sample.
func untilDeadline(d time.Duration, minOps int) func(k, i int) bool {
	deadline := time.Now().Add(d)
	var started atomic.Int64
	return func(k, i int) bool {
		if time.Now().Before(deadline) || started.Load() < int64(minOps) {
			started.Add(1)
			return false
		}
		return true
	}
}

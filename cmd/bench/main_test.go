package main

import (
	"testing"

	"olgapro/internal/mc"
)

// TestFleetQueryBenchRuns smokes the scattered-query harness entries: a
// broken fleet boot or a scatter failure must fail `go test` rather than
// surfacing for the first time in a full bench-json run.
func TestFleetQueryBenchRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("boots in-process shards; skipped in -short")
	}
	for _, shards := range []int{1, 3} {
		res := testing.Benchmark(benchQueryFleet(shards))
		if res.N <= 0 {
			t.Fatalf("%d-shard scatter benchmark did not run", shards)
		}
	}
}

// TestPredicateStageRungs drains the query_predicate_* table once under
// each rung's predicate and checks what the rungs exist to show: a
// predicate every tuple certainly satisfies infers as many samples as no
// predicate, and a hopeless one stops each tuple after its first chunk.
func TestPredicateStageRungs(t *testing.T) {
	st := newPredicateStage()
	counts := func(pred *mc.Predicate, wantRows int) float64 {
		t.Helper()
		st.resetCounts()
		n, err := st.drain(pred)
		if err != nil {
			t.Fatal(err)
		}
		if n != wantRows {
			t.Fatalf("predicate %+v: %d of %d tuples survived, want %d", pred, n, predicateRows, wantRows)
		}
		return st.samplesPerTuple()
	}
	none := counts(nil, predicateRows)
	keep := counts(&mc.Predicate{A: -100, B: 100, Theta: 0.5}, predicateRows)
	drop := counts(&mc.Predicate{A: 100, B: 200, Theta: 0.5}, 0)
	if keep != none {
		t.Fatalf("keep rung inferred %g samples/tuple, none rung %g", keep, none)
	}
	if drop != 64 || drop > 0.4*none {
		t.Fatalf("drop rung inferred %g samples/tuple of %g", drop, none)
	}
}

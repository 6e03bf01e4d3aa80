package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/ecdf"
	"olgapro/internal/kernel"
	"olgapro/internal/mc"
	"olgapro/internal/query"
	"olgapro/internal/udf"
)

// testUDF is the smooth 2-D function used across the executor tests.
func testUDF() udf.Func {
	return udf.FuncOf{D: 2, F: func(x []float64) float64 {
		return x[0]*x[0] + 0.5*x[1] + 0.3*x[0]*x[1]
	}}
}

// warmEvaluator trains an evaluator on a few inputs so it can be frozen.
func warmEvaluator(t testing.TB, pred *mc.Predicate) *core.Evaluator {
	t.Helper()
	cfg := core.Config{
		Kernel:         kernel.NewSqExp(1, 0.5),
		SampleOverride: 100,
		Predicate:      pred,
	}
	ev, err := core.NewEvaluator(testUDF(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	in, err := dist.IsoGaussianVec([]float64{0.5, 0.5}, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := ev.Eval(in, rng); err != nil {
			t.Fatal(err)
		}
	}
	return ev
}

// tupleTable builds n tuples with uncertain 2-D input attributes.
func tupleTable(n int) []*query.Tuple {
	rng := rand.New(rand.NewSource(99))
	tuples := make([]*query.Tuple, n)
	for i := range tuples {
		tuples[i] = query.MustTuple(
			[]string{"id", "x0", "x1"},
			[]query.Value{
				query.Int(int64(i)),
				query.Uncertain(dist.Normal{Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.1}),
				query.Uncertain(dist.Normal{Mu: 0.3 + 0.4*rng.Float64(), Sigma: 0.1}),
			},
		)
	}
	return tuples
}

// drainResults pulls the full stream and returns the result values.
func drainResults(t *testing.T, it query.Iterator) []query.Value {
	t.Helper()
	tuples, err := query.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]query.Value, len(tuples))
	for i, tp := range tuples {
		vals[i] = tp.MustGet("y")
	}
	return vals
}

// sameResults asserts two result streams are bit-identical: same length,
// same TEPs, and exactly equal output-sample arrays.
func sameResults(t *testing.T, label string, a, b []query.Value) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d result tuples", label, len(a), len(b))
	}
	for i := range a {
		if a[i].TEP != b[i].TEP {
			t.Fatalf("%s: tuple %d TEP %v vs %v", label, i, a[i].TEP, b[i].TEP)
		}
		av, bv := a[i].R.Values(), b[i].R.Values()
		if len(av) != len(bv) {
			t.Fatalf("%s: tuple %d sample count %d vs %d", label, i, len(av), len(bv))
		}
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("%s: tuple %d sample %d: %v vs %v (not bit-identical)",
					label, i, j, av[j], bv[j])
			}
		}
	}
}

// TestDeterminismAcrossWorkerCounts is the executor's headline guarantee:
// for a fixed seed, a hand-rolled serial loop and pools of 1, 2, and 8
// workers produce bit-identical output streams over 200+ tuples.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	ev := warmEvaluator(t, nil)
	tuples := tupleTable(210)
	inputs := []string{"x0", "x1"}
	const seed = 42

	// Serial reference: one frozen clone, per-tuple seeding by contract.
	serialClone, err := ev.CloneFrozen()
	if err != nil {
		t.Fatal(err)
	}
	eng := query.NewEvaluatorEngine(serialClone)
	var serial []query.Value
	for seq, tp := range tuples {
		rng := rand.New(rand.NewSource(query.TupleSeed(seed, int64(seq))))
		input, err := query.InputVectorFor(tp, inputs)
		if err != nil {
			t.Fatal(err)
		}
		out, err := eng.EvalInput(input, nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := query.AttachResult(tp, out, "y", nil, false)
		if res == nil {
			t.Fatalf("tuple %d unexpectedly filtered", seq)
		}
		serial = append(serial, res.MustGet("y"))
	}

	for _, workers := range []int{1, 2, 8} {
		pool, err := NewEvaluatorPool(ev, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := drainResults(t, pool.Apply(query.NewScan(tuples), inputs, "y", Options{Seed: seed}))
		sameResults(t, fmt.Sprintf("serial vs %d workers", workers), serial, got)
	}
}

// TestPredicateFilteringMatchesAcrossWorkers checks that drop decisions and
// truncated survivors agree between worker counts when a predicate is on.
func TestPredicateFilteringMatchesAcrossWorkers(t *testing.T) {
	pred := &mc.Predicate{A: 0.45, B: 2, Theta: 0.5}
	ev := warmEvaluator(t, pred)
	tuples := tupleTable(120)
	inputs := []string{"x0", "x1"}

	type run struct {
		vals    []query.Value
		dropped int
	}
	runs := make([]run, 0, 3)
	for _, workers := range []int{1, 2, 8} {
		pool, err := NewEvaluatorPool(ev, workers)
		if err != nil {
			t.Fatal(err)
		}
		pe := pool.Apply(query.NewScan(tuples), inputs, "y", Options{Seed: 7, Predicate: pred})
		vals := drainResults(t, pe)
		runs = append(runs, run{vals: vals, dropped: pe.Dropped})
	}
	if runs[0].dropped == 0 || len(runs[0].vals) == 0 {
		t.Fatalf("test workload should both keep and drop tuples; kept %d dropped %d",
			len(runs[0].vals), runs[0].dropped)
	}
	for i := 1; i < len(runs); i++ {
		if runs[i].dropped != runs[0].dropped {
			t.Fatalf("dropped counts differ: %d vs %d", runs[i].dropped, runs[0].dropped)
		}
		sameResults(t, "predicate runs", runs[0].vals, runs[i].vals)
	}
}

// TestRaceEightWorkers drives the executor under the race detector: 8
// workers over 200+ tuples with a small queue to force backpressure.
func TestRaceEightWorkers(t *testing.T) {
	ev := warmEvaluator(t, nil)
	pool, err := NewEvaluatorPool(ev, 8)
	if err != nil {
		t.Fatal(err)
	}
	tuples := tupleTable(220)
	pe := pool.Apply(query.NewScan(tuples), []string{"x0", "x1"}, "y", Options{Seed: 5, Queue: 3})
	got, err := query.Drain(pe)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tuples) {
		t.Fatalf("got %d tuples, want %d", len(got), len(tuples))
	}
	// Ordered merge: output preserves input order.
	for i, tp := range got {
		if id := tp.MustGet("id").I; id != int64(i) {
			t.Fatalf("output position %d has id %d: order not preserved", i, id)
		}
	}
}

// engineFunc adapts a function to query.Engine for fault-injection tests.
type engineFunc func(input dist.Vector, rng *rand.Rand) (*core.Output, error)

func (f engineFunc) EvalInput(input dist.Vector, _ *mc.Predicate, rng *rand.Rand) (*core.Output, error) {
	return f(input, rng)
}

// okOutput fabricates a minimal successful engine output.
func okOutput() *core.Output {
	return &core.Output{Dist: ecdf.New([]float64{1, 2, 3}), MetBudget: true}
}

// TestFirstErrorWinsInStreamOrder injects a failure at tuple #5 on every
// worker path and checks the convention: tuples 0–4 are delivered, the
// error surfaces wrapped with the ordinal, and it is sticky.
func TestFirstErrorWinsInStreamOrder(t *testing.T) {
	boom := errors.New("boom")
	mkEngine := func() query.Engine {
		return engineFunc(func(input dist.Vector, rng *rand.Rand) (*core.Output, error) {
			// The input mean identifies the tuple: x0 carries the ordinal.
			if seq := input.MeanVec()[0]; seq >= 5 {
				return nil, boom
			}
			return okOutput(), nil
		})
	}
	pool, err := NewPool(mkEngine(), mkEngine(), mkEngine(), mkEngine())
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]*query.Tuple, 40)
	for i := range tuples {
		tuples[i] = query.MustTuple([]string{"x0"}, []query.Value{query.Float(float64(i))})
	}
	pe := pool.Apply(query.NewScan(tuples), []string{"x0"}, "y", Options{})
	var n int
	var got error
	for {
		_, err := pe.Next()
		if err != nil {
			got = err
			break
		}
		n++
	}
	if n != 5 {
		t.Fatalf("delivered %d tuples before the error, want 5", n)
	}
	if !errors.Is(got, boom) {
		t.Fatalf("error chain lost the cause: %v", got)
	}
	if !strings.Contains(got.Error(), "tuple #5") {
		t.Fatalf("error not wrapped with the failing ordinal: %v", got)
	}
	if _, err := pe.Next(); err == nil || err.Error() != got.Error() {
		t.Fatalf("error not sticky: %v", err)
	}
}

// failingIterator yields n tuples then a terminal error.
type failingIterator struct {
	n    int
	pos  int
	terr error
}

func (f *failingIterator) Next() (*query.Tuple, error) {
	if f.pos >= f.n {
		return nil, f.terr
	}
	f.pos++
	return query.MustTuple([]string{"x0"}, []query.Value{query.Float(float64(f.pos))}), nil
}

// TestUpstreamErrorPropagatesUnwrapped checks the convention's other half:
// input-iterator errors surface unmodified, after the preceding results.
func TestUpstreamErrorPropagatesUnwrapped(t *testing.T) {
	terr := errors.New("upstream broke")
	ok := engineFunc(func(input dist.Vector, rng *rand.Rand) (*core.Output, error) {
		return okOutput(), nil
	})
	pool, err := NewPool(ok, ok)
	if err != nil {
		t.Fatal(err)
	}
	pe := pool.Apply(&failingIterator{n: 7, terr: terr}, []string{"x0"}, "y", Options{})
	var n int
	for {
		_, err := pe.Next()
		if err != nil {
			if err != terr {
				t.Fatalf("upstream error was modified: %v", err)
			}
			break
		}
		n++
	}
	if n != 7 {
		t.Fatalf("delivered %d tuples before the upstream error, want 7", n)
	}
}

// waitGoroutines polls until the goroutine count drops back to at most
// want, failing after a deadline — the leak check for teardown paths.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d > %d\n%s",
				runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancellationStopsWorkersPromptly cancels mid-stream and asserts Next
// reports the context error and every goroutine exits.
func TestCancellationStopsWorkersPromptly(t *testing.T) {
	before := runtime.NumGoroutine()
	slow := engineFunc(func(input dist.Vector, rng *rand.Rand) (*core.Output, error) {
		time.Sleep(2 * time.Millisecond)
		return okOutput(), nil
	})
	pool, err := NewPool(slow, slow, slow, slow)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tuples := make([]*query.Tuple, 500)
	for i := range tuples {
		tuples[i] = query.MustTuple([]string{"x0"}, []query.Value{query.Float(float64(i))})
	}
	pe := pool.Apply(query.NewScan(tuples), []string{"x0"}, "y", Options{Ctx: ctx})
	if _, err := pe.Next(); err != nil {
		t.Fatal(err)
	}
	cancel()
	start := time.Now()
	for {
		_, err := pe.Next()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
			break
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v to surface", elapsed)
	}
	if _, err := pe.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation not sticky: %v", err)
	}
	waitGoroutines(t, before)
}

// TestCloseReleasesGoroutines abandons a stream mid-drain via Close.
func TestCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	ev := warmEvaluator(t, nil)
	pool, err := NewEvaluatorPool(ev, 4)
	if err != nil {
		t.Fatal(err)
	}
	pe := pool.Apply(query.NewScan(tupleTable(200)), []string{"x0", "x1"}, "y", Options{Seed: 1})
	if _, err := pe.Next(); err != nil {
		t.Fatal(err)
	}
	if err := pe.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pe.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after Close: %v", err)
	}
	waitGoroutines(t, before)

	// Close before any Next starts nothing and still poisons the iterator.
	pe2 := pool.Apply(query.NewScan(tupleTable(5)), []string{"x0", "x1"}, "y", Options{})
	if err := pe2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := pe2.Next(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after early Close: %v", err)
	}
	waitGoroutines(t, before)
}

// TestEOFTeardown checks a fully drained stream also releases goroutines
// and keeps returning io.EOF.
func TestEOFTeardown(t *testing.T) {
	before := runtime.NumGoroutine()
	ok := engineFunc(func(input dist.Vector, rng *rand.Rand) (*core.Output, error) {
		return okOutput(), nil
	})
	pool, err := NewPool(ok, ok, ok)
	if err != nil {
		t.Fatal(err)
	}
	tuples := make([]*query.Tuple, 50)
	for i := range tuples {
		tuples[i] = query.MustTuple([]string{"x0"}, []query.Value{query.Float(float64(i))})
	}
	pe := pool.Apply(query.NewScan(tuples), []string{"x0"}, "y", Options{})
	got, err := query.Drain(pe)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("got %d tuples", len(got))
	}
	if _, err := pe.Next(); err != io.EOF {
		t.Fatalf("want io.EOF after drain, got %v", err)
	}
	waitGoroutines(t, before)
}

// TestPoolValidation covers the constructors' error paths.
func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(); err == nil {
		t.Error("empty pool should error")
	}
	if _, err := NewPool(nil); err == nil {
		t.Error("nil engine should error")
	}
	cold, err := core.NewEvaluator(testUDF(), core.Config{Kernel: kernel.NewSqExp(1, 0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEvaluatorPool(cold, 2); err == nil {
		t.Error("un-warmed evaluator should be rejected (bootstrap would mutate the frozen model)")
	}
	ev := warmEvaluator(t, nil)
	pool, err := NewEvaluatorPool(ev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pool.Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("workers ≤ 0 should default to GOMAXPROCS, got %d", pool.Workers())
	}
}

// TestTupleSeedDistinct spot-checks the per-tuple seed mixer for collisions
// over a realistic range.
func TestTupleSeedDistinct(t *testing.T) {
	seen := make(map[int64]int64, 20000)
	for _, base := range []int64{0, 1, 42, -7} {
		for seq := int64(0); seq < 5000; seq++ {
			s := query.TupleSeed(base, seq)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: base %d seq %d repeats %d", base, seq, prev)
			}
			seen[s] = seq
		}
	}
	if query.TupleSeed(1, 0) == query.TupleSeed(2, 0) {
		t.Error("different bases should give different seeds")
	}
}

// countingIterator synthesizes tuples on demand and tracks how far the
// executor's feeder has pulled, for backpressure assertions.
type countingIterator struct {
	n      int
	pulled atomic.Int64
}

func (c *countingIterator) Next() (*query.Tuple, error) {
	i := c.pulled.Add(1) - 1
	if i >= int64(c.n) {
		return nil, io.EOF
	}
	return query.MustTuple([]string{"x0"}, []query.Value{query.Float(float64(i))}), nil
}

// TestReorderBufferBounded pins the backpressure contract: while tuple #0
// stalls the ordered merge, the feeder must stop pulling once 2×Queue +
// workers tuples are in flight, instead of buffering the rest of the
// stream in the reorder map.
func TestReorderBufferBounded(t *testing.T) {
	release := make(chan struct{})
	eng := engineFunc(func(input dist.Vector, rng *rand.Rand) (*core.Output, error) {
		if input.MeanVec()[0] == 0 {
			<-release
		}
		return okOutput(), nil
	})
	pool, err := NewPool(eng, eng) // 2 workers, Queue 4 → bound 2·4+2 = 10
	if err != nil {
		t.Fatal(err)
	}
	src := &countingIterator{n: 5000}
	pe := pool.Apply(src, []string{"x0"}, "y", Options{Queue: 4})
	done := make(chan error, 1)
	var drained []*query.Tuple
	go func() {
		out, err := query.Drain(pe)
		drained = out
		done <- err
	}()
	// Wait for the pull count to plateau with the straggler still held.
	var prev int64 = -1
	for i := 0; i < 100; i++ {
		cur := src.pulled.Load()
		if cur == prev && cur > 0 {
			break
		}
		prev = cur
		time.Sleep(20 * time.Millisecond)
	}
	if pulled := src.pulled.Load(); pulled > 12 {
		t.Errorf("feeder pulled %d tuples while the merge was stalled; want ≤ 12 (2×Queue+workers+slack)", pulled)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if len(drained) != src.n {
		t.Fatalf("drained %d of %d tuples after release", len(drained), src.n)
	}
}

// TestPoolReuseAfterClose checks the teardown contract Close documents:
// once Close returns, no worker still holds an engine, so the same pool
// can run the next stage immediately.
func TestPoolReuseAfterClose(t *testing.T) {
	ev := warmEvaluator(t, nil)
	pool, err := NewEvaluatorPool(ev, 4)
	if err != nil {
		t.Fatal(err)
	}
	rel := tupleTable(150)
	pe := pool.Apply(query.NewScan(rel), []string{"x0", "x1"}, "y", Options{Seed: 3})
	if _, err := pe.Next(); err != nil {
		t.Fatal(err)
	}
	if err := pe.Close(); err != nil {
		t.Fatal(err)
	}
	// Immediately reuse the same engines for a fresh stage.
	out, err := query.Drain(pool.Apply(query.NewScan(rel), []string{"x0", "x1"}, "y", Options{Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(rel) {
		t.Fatalf("reused pool drained %d of %d tuples", len(out), len(rel))
	}
}

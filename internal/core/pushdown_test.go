package core

import (
	"math"
	"math/rand"
	"testing"

	"olgapro/internal/dist"
	"olgapro/internal/kernel"
	"olgapro/internal/mc"
)

// TestTEPUpperMatchesEnvelope is the property test behind the counting
// chunk check: over random means, variances, z_α and predicate ranges —
// with one shared variance (the envelope's homoscedastic shifted path) and
// per-sample variances (the sorted path) — bandCounts tallied chunk by
// chunk and turned into tepUpper equal the envelope's
// clamp01(Lower.CDF(B) − Upper.CDF(A)) bit for bit, so every filter
// decision is unchanged.
func TestTEPUpperMatchesEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	var sc envScratch
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(200)
		means := make([]float64, n)
		vars := make([]float64, n)
		grid := rng.Intn(2) == 0 // coarse grid: ties and exact boundary hits
		for i := range means {
			if grid {
				means[i] = float64(rng.Intn(7)-3) * 0.5
			} else {
				means[i] = rng.NormFloat64() * 2
			}
		}
		homo := trial%2 == 0
		v0 := rng.Float64() * 0.5
		if rng.Intn(8) == 0 {
			v0 = 0
		}
		for i := range vars {
			if homo {
				vars[i] = v0
			} else {
				vars[i] = rng.Float64() * 0.5
			}
		}
		zA := rng.Float64() * 4
		a := rng.NormFloat64() * 2
		b := a + rng.Float64()*3
		if rng.Intn(3) == 0 {
			// Put the range ends exactly on band ends, where ≤ matters.
			j, k := rng.Intn(n), rng.Intn(n)
			a = means[j] + zA*math.Sqrt(vars[j])
			b = means[k] - zA*math.Sqrt(vars[k])
		}
		pred := &mc.Predicate{A: a, B: b, Theta: rng.Float64()}

		env := sc.envelopeOf(means, vars, zA, n)
		want := clamp01(env.Lower.CDF(pred.B) - env.Upper.CDF(pred.A))
		// Tally in uneven chunks, as the filter loop does.
		inB, belowA := 0, 0
		for lo := 0; lo < n; {
			hi := min(n, lo+1+rng.Intn(64))
			b, a := bandCounts(means, vars, zA, lo, hi, pred)
			inB, belowA, lo = inB+b, belowA+a, hi
		}
		got := tepUpper(inB, belowA, n)
		if got != want {
			t.Fatalf("trial %d (n=%d homo=%v): tepUpper %v, envelope ρ_U %v", trial, n, homo, got, want)
		}
		h := mc.HoeffdingRadius(n, 0.05)
		if (got+h < pred.Theta) != (want+h < pred.Theta) {
			t.Fatalf("trial %d: filter decisions differ", trial)
		}
	}
}

// frozenPushdownClone is a frozen clone of a warmed evaluator with a
// 400-sample budget, so one 64-sample filter chunk is a small part of it.
func frozenPushdownClone(t *testing.T) (*Evaluator, dist.Vector) {
	t.Helper()
	ev, err := NewEvaluator(cloneTestUDF(), Config{
		Kernel:         kernel.NewSqExp(1, 0.5),
		SampleOverride: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	in, err := dist.IsoGaussianVec([]float64{0.5, 0.5}, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := ev.Eval(in, rng); err != nil {
			t.Fatal(err)
		}
	}
	c, err := ev.CloneFrozen()
	if err != nil {
		t.Fatal(err)
	}
	return c, in
}

// TestFrozenPredicateStopsAfterOneChunk: a per-call predicate the tuple
// cannot satisfy drops it on a frozen clone after the first chunk, with no
// UDF call.
func TestFrozenPredicateStopsAfterOneChunk(t *testing.T) {
	c, in := frozenPushdownClone(t)
	hopeless := &mc.Predicate{A: 100, B: 200, Theta: 0.5}
	out, err := c.EvalWhere(in, hopeless, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Filtered || out.SamplesInferred != 64 || out.Samples != 400 {
		t.Fatalf("hopeless tuple: filtered=%v inferred=%d of %d, want filtered after 64 of 400",
			out.Filtered, out.SamplesInferred, out.Samples)
	}
	if out.UDFCalls != 0 || c.Stats().UDFCalls != 0 {
		t.Fatalf("frozen clone called the UDF %d times", c.Stats().UDFCalls)
	}

	// A range holding the whole output envelope keeps the tuple with a
	// certain existence probability.
	wide := &mc.Predicate{A: -100, B: 100, Theta: 0.5}
	out, err = c.EvalWhere(in, wide, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Filtered || out.SamplesInferred != 400 || out.TEPLower != 1 || out.TEPUpper != 1 {
		t.Fatalf("certain survivor: filtered=%v inferred=%d TEP [%g, %g]",
			out.Filtered, out.SamplesInferred, out.TEPLower, out.TEPUpper)
	}
}

// TestFrozenPredicateEvalsKeepClonePure: after a run of evaluations under
// assorted per-call predicates, a frozen clone's next outputs — with and
// without a predicate — are bit-identical to a fresh clone's.
func TestFrozenPredicateEvalsKeepClonePure(t *testing.T) {
	used, in := frozenPushdownClone(t)
	fresh, err := used.CloneFrozen()
	if err != nil {
		t.Fatal(err)
	}
	preds := []*mc.Predicate{
		{A: 100, B: 200, Theta: 0.5},  // hopeless: one chunk
		{A: -100, B: 100, Theta: 0.5}, // certain survivor
		{A: 0.3, B: 0.6, Theta: 0.2},  // partial overlap
		nil,
	}
	for i, p := range preds {
		if _, err := used.EvalWhere(in, p, rand.New(rand.NewSource(int64(30+i)))); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range preds {
		o1, err := used.EvalWhere(in, p, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		o2, err := fresh.EvalWhere(in, p, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		if o1.Filtered != o2.Filtered || o1.SamplesInferred != o2.SamplesInferred ||
			o1.TEPLower != o2.TEPLower || o1.TEPUpper != o2.TEPUpper ||
			o1.Bound != o2.Bound || o1.ZAlpha != o2.ZAlpha {
			t.Fatalf("predicate %+v: used clone %+v, fresh clone %+v", p, o1, o2)
		}
		if (o1.Dist == nil) != (o2.Dist == nil) {
			t.Fatalf("predicate %+v: result presence differs", p)
		}
		if o1.Dist == nil {
			continue
		}
		for _, pair := range [][2][]float64{
			{o1.Dist.Values(), o2.Dist.Values()},
			{o1.Envelope.Lower.Values(), o2.Envelope.Lower.Values()},
			{o1.Envelope.Upper.Values(), o2.Envelope.Upper.Values()},
		} {
			if len(pair[0]) != len(pair[1]) {
				t.Fatalf("predicate %+v: support sizes %d vs %d", p, len(pair[0]), len(pair[1]))
			}
			for i := range pair[0] {
				if pair[0][i] != pair[1][i] {
					t.Fatalf("predicate %+v: value %d differs: %v vs %v", p, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}

// TestEvalWherePredicateIsPerCall: EvalWhere filters on its argument alone
// — nil means no filtering even when Config.Predicate is set — while Eval
// keeps the configured predicate, and a per-call predicate never leaks
// into the configuration.
func TestEvalWherePredicateIsPerCall(t *testing.T) {
	c, in := frozenPushdownClone(t)
	c.cfg.Predicate = &mc.Predicate{A: 100, B: 200, Theta: 0.5}
	out, err := c.EvalWhere(in, nil, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Filtered || out.TEPLower != 0 || out.TEPUpper != 0 {
		t.Fatal("nil per-call predicate must not filter on the configured one")
	}
	out, err = c.EvalWhere(in, &mc.Predicate{A: -100, B: 100, Theta: 0.5}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Filtered {
		t.Fatal("per-call predicate did not replace the configured one")
	}
	if c.cfg.Predicate.A != 100 {
		t.Fatal("per-call predicate leaked into the configuration")
	}
	out, err = c.Eval(in, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Filtered {
		t.Fatal("Eval must filter on the configured predicate")
	}
}

package query

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/kernel"
	"olgapro/internal/mc"
	"olgapro/internal/udf"
)

// TestPredicatePushdownBoundsMatchPossibleWorlds runs a predicate plan on a
// frozen clone, where the predicate reaches the engine and survivors carry
// envelope TEP bounds, and checks the grouped bounds against the brute-force
// possible-worlds reference over the survivors' statistic intervals and
// existence certainty. The relation is built so that some survivors exist
// certainly (TEPLower = 1) and some are maybe-tuples, so the count bounds
// are neither all exact nor all [0, n].
func TestPredicatePushdownBoundsMatchPossibleWorlds(t *testing.T) {
	identity := udf.FuncOf{D: 1, F: func(x []float64) float64 { return x[0] }}
	ev, err := core.NewEvaluator(identity, core.Config{Kernel: kernel.NewSqExp(4, 2), SampleOverride: 300})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 6; i++ {
		if _, err := ev.Eval(dist.NewIndependent(dist.Normal{Mu: 2 * rng.Float64(), Sigma: 0.3}), rng); err != nil {
			t.Fatal(err)
		}
	}
	clone, err := ev.CloneFrozen()
	if err != nil {
		t.Fatal(err)
	}
	rel := make([]*Tuple, 30)
	for i := range rel {
		rel[i] = MustTuple([]string{"id", "x0", "g"}, []Value{
			Int(int64(i)),
			Uncertain(dist.Normal{Mu: 2 * rng.Float64(), Sigma: 0.1}),
			Str(fmt.Sprintf("g%d", i%3)),
		})
	}
	pred := &mc.Predicate{A: 0.8, B: 10, Theta: 0.5}
	spec := ApplySpec{Inputs: []string{"x0"}, As: "y", Seed: 9, Predicate: pred, KeepEnvelope: true}
	it, err := From(rel).Apply(NewEvaluatorEngine(clone), spec).Iter()
	if err != nil {
		t.Fatal(err)
	}
	survivors, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if it.(*ApplyUDF).Dropped == 0 {
		t.Fatal("predicate dropped nothing")
	}

	aggs := []Agg{Count(), Sum("y"), Avg("y"), Min("y"), Max("y")}
	byGroup := map[string][]aggItem{}
	sure := 0
	for _, tp := range survivors {
		y := tp.MustGet("y")
		b, err := IntervalOf(y, MeanStat())
		if err != nil {
			t.Fatal(err)
		}
		it := aggItem{val: b, sure: existenceCertain(y)}
		if it.sure {
			sure++
		}
		g := tp.MustGet("g").S
		byGroup[g] = append(byGroup[g], it)
	}
	if sure == 0 || sure == len(survivors) {
		t.Fatalf("%d of %d survivors certain; want both kinds", sure, len(survivors))
	}

	out, err := From(survivors).GroupBy(GroupBySpec{Keys: []string{"g"}, Aggs: aggs}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(byGroup) {
		t.Fatalf("%d groups, want %d", len(out), len(byGroup))
	}
	for _, tp := range out {
		g := tp.MustGet("g").S
		for _, agg := range aggs {
			got := tp.MustGet(agg.name()).B
			wantLo, wantHi := refAggBounds(agg.Kind, byGroup[g])
			if math.Abs(got.Lo-wantLo) > 1e-12 || math.Abs(got.Hi-wantHi) > 1e-12 {
				t.Fatalf("group %q %s: got [%g, %g], want [%g, %g]", g, agg.name(), got.Lo, got.Hi, wantLo, wantHi)
			}
		}
	}
}

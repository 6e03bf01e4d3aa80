package query

import (
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/ecdf"
	"olgapro/internal/kernel"
	"olgapro/internal/mc"
	"olgapro/internal/sdss"
	"olgapro/internal/udf"
)

func TestValueConstructorsAndString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Float(1.5), "1.5"},
		{Int(7), "7"},
		{Str("abc"), "abc"},
		{Value{}, "null"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
	u := Uncertain(dist.Normal{Mu: 2, Sigma: 0.5})
	if !strings.Contains(u.String(), "μ=2") {
		t.Errorf("uncertain string: %q", u.String())
	}
	r := Result(ecdf.New([]float64{1, 2, 3}), 0.9)
	if !strings.Contains(r.String(), "n=3") {
		t.Errorf("result string: %q", r.String())
	}
	if !strings.Contains(Result(nil, 0).String(), "filtered") {
		t.Errorf("nil result string")
	}
	if KindFloat.String() != "float" || KindNull.String() != "null" {
		t.Error("kind names")
	}
}

func TestTupleBasics(t *testing.T) {
	tp, err := NewTuple([]string{"a", "b"}, []Value{Float(1), Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	if tp.Len() != 2 {
		t.Fatalf("Len = %d", tp.Len())
	}
	if v := tp.MustGet("a"); v.F != 1 {
		t.Fatalf("Get(a) = %v", v)
	}
	if _, err := tp.Get("zz"); err == nil {
		t.Fatal("missing attribute should error")
	}
	// With override vs extend.
	t2 := tp.With("a", Float(9))
	if t2.MustGet("a").F != 9 || tp.MustGet("a").F != 1 {
		t.Fatal("With override broken or mutated original")
	}
	t3 := tp.With("c", Str("x"))
	if t3.Len() != 3 || tp.Len() != 2 {
		t.Fatal("With extend broken")
	}
	if s := tp.String(); !strings.Contains(s, "a=1") {
		t.Errorf("tuple string: %q", s)
	}
}

func TestTupleErrors(t *testing.T) {
	if _, err := NewTuple([]string{"a"}, nil); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := NewTuple([]string{"a", "a"}, []Value{Float(1), Float(2)}); err == nil {
		t.Error("duplicate names should error")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustGet on missing should panic")
		}
	}()
	MustTuple([]string{"a"}, []Value{Float(1)}).MustGet("zz")
}

func TestConcat(t *testing.T) {
	a := MustTuple([]string{"id"}, []Value{Int(1)})
	b := MustTuple([]string{"id"}, []Value{Int(2)})
	j, err := Concat(a, "l.", b, "r.")
	if err != nil {
		t.Fatal(err)
	}
	if j.MustGet("l.id").I != 1 || j.MustGet("r.id").I != 2 {
		t.Fatalf("concat: %v", j)
	}
}

func TestScanSelectProject(t *testing.T) {
	rel := []*Tuple{
		MustTuple([]string{"id", "v"}, []Value{Int(1), Float(10)}),
		MustTuple([]string{"id", "v"}, []Value{Int(2), Float(20)}),
		MustTuple([]string{"id", "v"}, []Value{Int(3), Float(30)}),
	}
	it := &Project{
		In: &Select{
			In:   NewScan(rel),
			Pred: func(t *Tuple) (bool, error) { return t.MustGet("v").F > 15, nil },
		},
		Names: []string{"id"},
	}
	got, err := Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].MustGet("id").I != 2 || got[1].MustGet("id").I != 3 {
		t.Fatalf("pipeline result: %v", got)
	}
	if got[0].Len() != 1 {
		t.Fatalf("projection kept %d attrs", got[0].Len())
	}
	// Exhausted iterator keeps returning EOF.
	if _, err := it.Next(); err != io.EOF {
		t.Fatalf("after drain: %v", err)
	}
}

func TestCrossJoin(t *testing.T) {
	rel := []*Tuple{
		MustTuple([]string{"id"}, []Value{Int(1)}),
		MustTuple([]string{"id"}, []Value{Int(2)}),
		MustTuple([]string{"id"}, []Value{Int(3)}),
	}
	full, err := Drain(NewCrossJoin(rel, "a.", rel, "b.", false))
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 9 {
		t.Fatalf("full cross join size %d", len(full))
	}
	pairs, err := Drain(NewCrossJoin(rel, "a.", rel, "b.", true))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 3 { // (1,2) (1,3) (2,3)
		t.Fatalf("distinct pairs size %d", len(pairs))
	}
	for _, p := range pairs {
		if p.MustGet("a.id").I >= p.MustGet("b.id").I {
			t.Fatalf("self pair leaked: %v", p)
		}
	}
}

// Q1 with the MC engine: Select objID, GalAge(redshift) From Galaxy.
// Using the identity UDF so the output distribution is checkable.
func TestApplyUDFWithMCEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rel := []*Tuple{
		GalaxyTuple(1, 180, 30, 0.001, 0.001, 0.40, 0.02),
		GalaxyTuple(2, 181, 31, 0.001, 0.001, 0.50, 0.02),
	}
	identity := udf.FuncOf{D: 1, F: func(x []float64) float64 { return x[0] }}
	apply := &ApplyUDF{
		In:     NewScan(rel),
		Inputs: []string{"redshift"},
		Out:    "z_copy",
		Engine: NewMCEngine(identity, mc.Config{Eps: 0.05, Delta: 0.05}),
		Rng:    rng,
	}
	got, err := Drain(apply)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d tuples", len(got))
	}
	for i, want := range []float64{0.40, 0.50} {
		res := got[i].MustGet("z_copy")
		if res.Kind != KindResult {
			t.Fatalf("tuple %d: kind %s", i, res.Kind)
		}
		if math.Abs(res.R.Mean()-want) > 0.01 {
			t.Fatalf("tuple %d: mean %g, want %g", i, res.R.Mean(), want)
		}
	}
}

func TestApplyUDFMixedCertainInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := []*Tuple{MustTuple(
		[]string{"z", "area"},
		[]Value{Uncertain(dist.Normal{Mu: 2, Sigma: 0.1}), Float(3)},
	)}
	sum := udf.FuncOf{D: 2, F: func(x []float64) float64 { return x[0] + x[1] }}
	apply := &ApplyUDF{
		In:     NewScan(rel),
		Inputs: []string{"z", "area"},
		Out:    "sum",
		Engine: NewMCEngine(sum, mc.Config{Eps: 0.05, Delta: 0.05}),
		Rng:    rng,
	}
	got, err := Drain(apply)
	if err != nil {
		t.Fatal(err)
	}
	if m := got[0].MustGet("sum").R.Mean(); math.Abs(m-5) > 0.02 {
		t.Fatalf("mean %g, want 5", m)
	}
}

func TestApplyUDFRejectsBadAttribute(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rel := []*Tuple{MustTuple([]string{"s"}, []Value{Str("not numeric")})}
	identity := udf.FuncOf{D: 1, F: func(x []float64) float64 { return x[0] }}
	apply := &ApplyUDF{
		In: NewScan(rel), Inputs: []string{"s"}, Out: "y",
		Engine: NewMCEngine(identity, mc.Config{}), Rng: rng,
	}
	if _, err := Drain(apply); err == nil {
		t.Fatal("string attribute should be rejected")
	}
	apply2 := &ApplyUDF{
		In: NewScan(rel), Inputs: []string{"missing"}, Out: "y",
		Engine: NewMCEngine(identity, mc.Config{}), Rng: rng,
	}
	if _, err := Drain(apply2); err == nil {
		t.Fatal("missing attribute should be rejected")
	}
}

// TEP filtering in the WHERE clause: tuples whose output cannot reach the
// predicate interval are dropped and counted.
func TestApplyUDFFiltering(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rel := []*Tuple{
		// Output ≈ N(0.4, 0.02): inside [0.3, 0.5].
		GalaxyTuple(1, 180, 30, 0.001, 0.001, 0.40, 0.02),
		// Output ≈ N(5, 0.02): far outside.
		GalaxyTuple(2, 181, 31, 0.001, 0.001, 5.0, 0.02),
	}
	identity := udf.FuncOf{D: 1, F: func(x []float64) float64 { return x[0] }}
	apply := &ApplyUDF{
		In:        NewScan(rel),
		Inputs:    []string{"redshift"},
		Out:       "z",
		Engine:    NewMCEngine(identity, mc.Config{Eps: 0.05, Delta: 0.05}),
		Rng:       rng,
		Predicate: &mc.Predicate{A: 0.3, B: 0.5, Theta: 0.1},
	}
	got, err := Drain(apply)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].MustGet("objID").I != 1 {
		t.Fatalf("filtering kept %d tuples", len(got))
	}
	if apply.Dropped != 1 {
		t.Fatalf("Dropped = %d", apply.Dropped)
	}
}

// Q1 end-to-end with the OLGAPRO engine over a generated catalog.
func TestQ1WithGPEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cat := sdss.Generate(sdss.GenerateConfig{N: 12, Seed: 6})
	rel := make([]*Tuple, len(cat.Galaxies))
	for i, g := range cat.Galaxies {
		rel[i] = GalaxyTuple(g.ObjID, g.RA, g.Dec, g.RAErr, g.DecErr, g.Redshift, g.RedshiftErr)
	}
	// Cheap smooth stand-in for GalAge keeps the test fast; the astro
	// integration is exercised in the astro package and examples.
	pseudoAge := udf.FuncOf{D: 1, F: func(x []float64) float64 {
		return 13.5 / math.Sqrt(1+x[0])
	}}
	eval, err := core.NewEvaluator(pseudoAge, core.Config{
		Kernel: kernel.NewSqExp(3, 0.3),
	})
	if err != nil {
		t.Fatal(err)
	}
	apply := &ApplyUDF{
		In:     NewScan(rel),
		Inputs: []string{"redshift"},
		Out:    "age",
		Engine: NewEvaluatorEngine(eval),
		Rng:    rng,
	}
	got, err := Drain(apply)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 12 {
		t.Fatalf("%d tuples", len(got))
	}
	for _, tp := range got {
		z := tp.MustGet("redshift").D.Mean()
		want := 13.5 / math.Sqrt(1+z)
		res := tp.MustGet("age").R
		if math.Abs(res.Mean()-want) > 0.4 {
			t.Fatalf("age mean %g, want ≈ %g (z=%g)", res.Mean(), want, z)
		}
	}
	// The GP should have converged to a handful of training points for such
	// a smooth 1-D function, not one per sample.
	if pts := eval.Stats().TrainingPoints; pts > 60 {
		t.Fatalf("GP used %d training points for a smooth 1-D UDF", pts)
	}
}

// Q2 semantics: surviving tuples carry the predicate-truncated distribution
// with the tuple existence probability attached.
func TestApplyUDFTruncatesSurvivors(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rel := []*Tuple{
		// Output ≈ N(0.5, 0.1): roughly half its mass in [0.5, 2].
		MustTuple([]string{"v"}, []Value{Uncertain(dist.Normal{Mu: 0.5, Sigma: 0.1})}),
	}
	identity := udf.FuncOf{D: 1, F: func(x []float64) float64 { return x[0] }}
	pred := &mc.Predicate{A: 0.5, B: 2, Theta: 0.1}
	apply := &ApplyUDF{
		In:        NewScan(rel),
		Inputs:    []string{"v"},
		Out:       "y",
		Engine:    NewMCEngine(identity, mc.Config{Eps: 0.05, Delta: 0.05, Predicate: pred}),
		Rng:       rng,
		Predicate: pred,
	}
	got, err := Drain(apply)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("%d tuples", len(got))
	}
	res := got[0].MustGet("y")
	// TEP ≈ Pr[N(0.5,0.1) ≥ 0.5] = 0.5.
	if math.Abs(res.TEP-0.5) > 0.05 {
		t.Fatalf("TEP = %g, want ≈ 0.5", res.TEP)
	}
	// The distribution is conditional on the predicate: support ⊆ [0.5, 2].
	if res.R.Min() < 0.5 || res.R.Max() > 2 {
		t.Fatalf("truncated support [%g, %g] escapes [0.5, 2]", res.R.Min(), res.R.Max())
	}
	// Conditional median of the upper half of N(0.5, 0.1): ≈ 0.567.
	if med := res.R.Quantile(0.5); math.Abs(med-0.567) > 0.02 {
		t.Fatalf("conditional median %g, want ≈ 0.567", med)
	}
}

// errEngine fails on every input, for error-convention tests.
type errEngine struct{ err error }

func (e errEngine) EvalInput(input dist.Vector, pred *mc.Predicate, rng *rand.Rand) (*core.Output, error) {
	return nil, e.err
}

func TestErrorConventionApplyUDF(t *testing.T) {
	boom := io.ErrUnexpectedEOF
	tuples := []*Tuple{
		MustTuple([]string{"x"}, []Value{Uncertain(dist.Normal{Mu: 1, Sigma: 0.1})}),
		MustTuple([]string{"x"}, []Value{Uncertain(dist.Normal{Mu: 2, Sigma: 0.1})}),
	}
	a := &ApplyUDF{
		In:     NewScan(tuples),
		Inputs: []string{"x"},
		Out:    "y",
		Engine: errEngine{err: boom},
		Rng:    rand.New(rand.NewSource(1)),
	}
	_, err := a.Next()
	if err == nil {
		t.Fatal("want error")
	}
	if !strings.Contains(err.Error(), `apply "y": tuple #0`) {
		t.Fatalf("error not wrapped per convention: %v", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("cause lost: %v", err)
	}
	// Sticky: the same error, with no further input pulls.
	again, err2 := a.Next()
	if again != nil || err2 != err {
		t.Fatalf("error not sticky: %v vs %v", err2, err)
	}
}

func TestErrorConventionSelect(t *testing.T) {
	boom := errors.New("pred failed")
	tuples := []*Tuple{
		MustTuple([]string{"x"}, []Value{Float(1)}),
		MustTuple([]string{"x"}, []Value{Float(2)}),
	}
	s := &Select{
		In: NewScan(tuples),
		Pred: func(tp *Tuple) (bool, error) {
			if tp.MustGet("x").F > 1 {
				return false, boom
			}
			return true, nil
		},
	}
	if _, err := s.Next(); err != nil {
		t.Fatal(err)
	}
	_, err := s.Next()
	if err == nil || !strings.Contains(err.Error(), "select: tuple #1") || !errors.Is(err, boom) {
		t.Fatalf("select error not wrapped per convention: %v", err)
	}
	if _, err2 := s.Next(); err2 != err {
		t.Fatalf("select error not sticky: %v", err2)
	}
	// EOF passes through unwrapped and stays sticky too.
	p := &Project{In: NewScan(nil), Names: []string{"x"}}
	if _, err := p.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
	if _, err := p.Next(); err != io.EOF {
		t.Fatalf("EOF not sticky: %v", err)
	}
}

func TestErrorConventionProjectMissingAttr(t *testing.T) {
	p := &Project{
		In:    NewScan([]*Tuple{MustTuple([]string{"a"}, []Value{Float(1)})}),
		Names: []string{"zz"},
	}
	_, err := p.Next()
	if err == nil || !strings.Contains(err.Error(), "project: tuple #0") {
		t.Fatalf("project error not wrapped per convention: %v", err)
	}
}

func TestOutputEngineStamped(t *testing.T) {
	in := dist.NewIndependent(dist.Normal{Mu: 1, Sigma: 0.1})
	rng := rand.New(rand.NewSource(4))
	f := udf.FuncOf{D: 1, F: func(x []float64) float64 { return x[0] }}

	mcOut, err := NewMCEngine(f, mc.Config{Eps: 0.3, Delta: 0.3}).EvalInput(in, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if mcOut.Engine != core.EngineMC {
		t.Errorf("MC engine stamp = %v", mcOut.Engine)
	}

	ev, err := core.NewEvaluator(f, core.Config{Kernel: kernel.NewSqExp(1, 1), SampleOverride: 60})
	if err != nil {
		t.Fatal(err)
	}
	gpOut, err := NewEvaluatorEngine(ev).EvalInput(in, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if gpOut.Engine != core.EngineGP {
		t.Errorf("GP engine stamp = %v", gpOut.Engine)
	}

	h, err := core.NewHybrid(f, core.HybridConfig{Config: core.Config{
		Kernel: kernel.NewSqExp(1, 1), SampleOverride: 60,
	}, CalibrationInputs: 1})
	if err != nil {
		t.Fatal(err)
	}
	hOut, err := NewHybridEngine(h).EvalInput(in, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if hOut.Engine != core.EngineGP && hOut.Engine != core.EngineMC {
		t.Errorf("hybrid engine stamp missing: %v", hOut.Engine)
	}
}

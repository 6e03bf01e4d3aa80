package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"olgapro/client"
	"olgapro/internal/core"
	"olgapro/internal/gp"
	"olgapro/internal/udf"
)

// timedFunc counts the calls the evaluator makes to the black-box UDF.
type timedFunc struct {
	f     udf.Func
	calls int
}

func (t *timedFunc) Dim() int { return t.f.Dim() }

func (t *timedFunc) Eval(x []float64) float64 {
	t.calls++
	return t.f.Eval(x)
}

// udfProbes is how many of a replayed tuple's input samples the UDF is
// timed at, on every workload: frozen workloads call it nowhere else.
const udfProbes = 4

// supportHash digests the raw float64 bits of an output support (FNV-64a,
// little-endian), the wire contract behind EvalResult.SupportHash.
func supportHash(vals []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// replay re-evaluates served tuples in process through core, gp and the
// catalog UDF, starting from models fetched from the serving stack.
type replay struct {
	tuples, matched int
	evalTime        time.Duration
	predictTime     time.Duration
	samples         int
	inferred        int // samples that went through GP inference
	useful          int // inferred samples of tuples that reach the answer
	localPoints     int
	pointsAdded     int
	udfCalls        int // calls the replayed evaluators made
	probes          int // timed direct UDF calls
	probeTime       time.Duration
	modelPoints     []int
	bounds          []float64 // served bounds of the replayed tuples
	metBudget       int
}

// replayModel is a served instance's model rebuilt in process, with its
// UDF wrapper.
type replayModel struct {
	ev *core.Evaluator
	tf *timedFunc
}

// frozenModels fetches every instance's model from the shard that holds it
// and rebuilds it as a frozen clone, as the server does for reads.
func frozenModels(ctx context.Context, st *stack, insts []instance) (map[string]replayModel, error) {
	out := map[string]replayModel{}
	for _, in := range insts {
		var fs *client.FetchedSnapshot
		var err error
		for _, url := range st.shardURLs() {
			if fs, err = st.clientFor(nil, url).FetchSnapshot(ctx, in.name, -1); err == nil {
				break
			}
		}
		if err != nil {
			return nil, fmt.Errorf("fetch snapshot %s: %w", in.name, err)
		}
		ev, tf, err := restoreFrom(fs)
		if err != nil {
			return nil, err
		}
		if ev, err = ev.CloneFrozen(); err != nil {
			return nil, fmt.Errorf("clone %s: %w", in.name, err)
		}
		out[in.name] = replayModel{ev, tf}
	}
	return out, nil
}

// restoreFrom rebuilds an evaluator from a fetched snapshot. The snapshot
// carries the kernel and its parameters; the spec carries ε and δ.
func restoreFrom(fs *client.FetchedSnapshot) (*core.Evaluator, *timedFunc, error) {
	f, err := catalogFunc(fs.Spec.UDF)
	if err != nil {
		return nil, nil, err
	}
	snap, err := core.ReadSnapshot(bytes.NewReader(fs.Data))
	if err != nil {
		return nil, nil, fmt.Errorf("read snapshot %s: %w", fs.Spec.Name, err)
	}
	tf := &timedFunc{f: f}
	ev, err := core.Restore(tf, core.Config{Eps: fs.Spec.Eps, Delta: fs.Spec.Delta}, snap)
	if err != nil {
		return nil, nil, fmt.Errorf("restore %s: %w", fs.Spec.Name, err)
	}
	return ev, tf, nil
}

// eval replays one tuple with the RNG seed the server used and compares the
// output support with the served hash. A tuple the predicate pred (may be
// nil) drops does not count as useful inference.
func (rp *replay) eval(m replayModel, input client.InputSpec, rngSeed int64, want string, pred *client.PredicateSpec) error {
	ev := m.ev
	vec, err := input.Vector()
	if err != nil {
		return err
	}
	start := time.Now()
	out, err := ev.Eval(vec, rand.New(rand.NewSource(rngSeed)))
	rp.evalTime += time.Since(start)
	if err != nil {
		return fmt.Errorf("replay eval: %w", err)
	}
	rp.tuples++
	if out.Dist != nil && supportHash(out.Dist.Values()) == want {
		rp.matched++
	}
	rp.samples += out.Samples
	rp.inferred += out.SamplesInferred
	keep := true
	if pred != nil && out.Dist != nil {
		_, mass := out.Dist.Truncate(pred.A, pred.B)
		keep = mass >= pred.Theta
	}
	if keep {
		rp.useful += out.SamplesInferred
	}
	rp.localPoints += out.LocalPoints
	rp.pointsAdded += out.PointsAdded

	// GP layer: the model's predictions at the same input samples.
	rng := rand.New(rand.NewSource(rngSeed))
	xs := make([][]float64, ev.SampleBudget())
	for i := range xs {
		xs[i] = vec.SampleVec(rng, nil)
	}
	var sc gp.Scratch
	model := ev.Model()
	start = time.Now()
	for _, x := range xs {
		model.PredictWith(&sc, x)
	}
	rp.predictTime += time.Since(start)

	// UDF layer: the cost of one call at this tuple's inputs.
	start = time.Now()
	for _, x := range xs[:min(udfProbes, len(xs))] {
		m.tf.f.Eval(x)
		rp.probes++
	}
	rp.probeTime += time.Since(start)
	return nil
}

// finish records a replayed model's final size and UDF calls.
func (rp *replay) finish(m replayModel) {
	rp.modelPoints = append(rp.modelPoints, m.ev.Points())
	rp.udfCalls += m.tf.calls
}

// metrics fills the core, gp and udf layer metrics. A replay that did not
// reproduce every served support leaves the layers unmeasured.
func (rp *replay) metrics(m map[string]float64) {
	names := []string{
		"core.eval_ms_per_tuple", "core.samples_per_tuple", "core.samples_inferred_frac",
		"core.local_points_mean", "core.points_added_per_tuple",
		"gp.predict_ms_per_tuple", "gp.points", "udf.ms_per_call",
	}
	if rp.tuples == 0 || rp.matched != rp.tuples {
		for _, n := range names {
			m[n] = unmeasured
		}
		return
	}
	t := float64(rp.tuples)
	pts := make([]float64, len(rp.modelPoints))
	for i, p := range rp.modelPoints {
		pts[i] = float64(p)
	}
	m["core.eval_ms_per_tuple"] = ms(rp.evalTime) / t
	m["core.samples_per_tuple"] = float64(rp.samples) / t
	m["core.samples_inferred_frac"] = float64(rp.useful) / float64(rp.inferred)
	m["core.local_points_mean"] = float64(rp.localPoints) / t
	m["core.points_added_per_tuple"] = float64(rp.pointsAdded) / t
	m["gp.predict_ms_per_tuple"] = ms(rp.predictTime) / t
	m["gp.points"] = mean(pts)
	m["udf.ms_per_call"] = ms(rp.probeTime) / float64(rp.probes)
}

package core

import (
	"math/rand"
	"sync/atomic"
	"time"

	"olgapro/internal/dist"
	"olgapro/internal/mc"
	"olgapro/internal/udf"
)

// Engine identifies which evaluation strategy processed an input.
type Engine int

const (
	// EngineUnknown is the zero value: the output was never stamped. Kept
	// distinct from the real engines so a missing stamp is detectable.
	EngineUnknown Engine = iota
	// EngineGP is the OLGAPRO Gaussian-process path.
	EngineGP
	// EngineMC is direct Monte-Carlo simulation.
	EngineMC
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineGP:
		return "GP"
	case EngineMC:
		return "MC"
	default:
		return "unknown"
	}
}

// HybridConfig configures the hybrid solution of §5.4, which explores the
// UDF's cost on the fly and routes inputs to the cheaper engine.
type HybridConfig struct {
	Config
	// CalibrationInputs is how many inputs run on the GP path while
	// measuring costs before the engine choice is made (default 10).
	CalibrationInputs int
	// EvalTime is the nominal UDF evaluation time T. When 0, T is measured
	// from the wall time of actual UDF calls. Setting it explicitly matches
	// the harness's virtual-clock experiments.
	EvalTime time.Duration
}

// timedFunc measures the wall time of UDF calls.
type timedFunc struct {
	f       udf.Func
	calls   int64
	totalNs int64
}

func (t *timedFunc) Dim() int { return t.f.Dim() }

func (t *timedFunc) Eval(x []float64) float64 {
	start := time.Now()
	y := t.f.Eval(x)
	atomic.AddInt64(&t.totalNs, int64(time.Since(start)))
	atomic.AddInt64(&t.calls, 1)
	return y
}

func (t *timedFunc) avg() time.Duration {
	c := atomic.LoadInt64(&t.calls)
	if c == 0 {
		return 0
	}
	return time.Duration(atomic.LoadInt64(&t.totalNs) / c)
}

// Hybrid runs the calibration-then-choose strategy: the first
// CalibrationInputs inputs go through the GP path while both the UDF
// evaluation time and the GP's per-input cost are measured; afterwards each
// input goes to whichever engine is projected to be cheaper.
type Hybrid struct {
	cfg   HybridConfig
	tf    *timedFunc
	eval  *Evaluator
	mcCfg mc.Config

	inputs   int
	gpCostNs int64 // accumulated GP per-input cost (excluding UDF wall, plus nominal UDF cost)
	gpInputs int
	decided  bool
	choice   Engine
}

// NewHybrid builds a hybrid evaluator for the UDF.
func NewHybrid(f udf.Func, cfg HybridConfig) (*Hybrid, error) {
	if cfg.CalibrationInputs <= 0 {
		cfg.CalibrationInputs = 10
	}
	tf := &timedFunc{f: f}
	eval, err := NewEvaluator(tf, cfg.Config)
	if err != nil {
		return nil, err
	}
	ecfg := eval.Config()
	return &Hybrid{
		cfg:    cfg,
		tf:     tf,
		eval:   eval,
		choice: EngineGP, // the calibration engine, until decided
		mcCfg: mc.Config{
			Eps: ecfg.Eps, Delta: ecfg.Delta, Metric: mc.MetricDiscrepancy,
			Predicate: ecfg.Predicate,
		},
	}, nil
}

// Evaluator exposes the underlying GP evaluator.
func (h *Hybrid) Evaluator() *Evaluator { return h.eval }

// Choice returns the engine selected after calibration; before the decision
// it returns EngineGP (the calibration engine) and decided = false.
func (h *Hybrid) Choice() (Engine, bool) { return h.choice, h.decided }

// evalTime returns the nominal UDF cost T.
func (h *Hybrid) evalTime() time.Duration {
	if h.cfg.EvalTime > 0 {
		return h.cfg.EvalTime
	}
	return h.tf.avg()
}

// mcCostEstimate projects the cost of one MC input: m × T.
func (h *Hybrid) mcCostEstimate() time.Duration {
	m := mc.SampleSize(h.mcCfg.Eps, h.mcCfg.Delta, h.mcCfg.Metric)
	return time.Duration(m) * h.evalTime()
}

// gpCostEstimate is the measured average per-input GP cost with UDF calls
// charged at the nominal T.
func (h *Hybrid) gpCostEstimate() time.Duration {
	if h.gpInputs == 0 {
		return 0
	}
	return time.Duration(h.gpCostNs / int64(h.gpInputs))
}

// Eval routes one uncertain input to the current engine, filtering on the
// configured predicate.
func (h *Hybrid) Eval(input dist.Vector, rng *rand.Rand) (*Output, Engine, error) {
	return h.EvalWhere(input, h.mcCfg.Predicate, rng)
}

// EvalWhere is Eval under the §5.5 predicate pred alone (nil: no
// filtering), on whichever engine runs the input; as with
// Evaluator.EvalWhere, the configured predicate does not act here.
func (h *Hybrid) EvalWhere(input dist.Vector, pred *mc.Predicate, rng *rand.Rand) (*Output, Engine, error) {
	h.inputs++
	if h.decided && h.choice == EngineMC {
		cfg := h.mcCfg
		cfg.Predicate = pred
		res, err := mc.Evaluate(h.tf.f, input, cfg, rng)
		if err != nil {
			return nil, EngineMC, err
		}
		out := &Output{
			Dist:     res.Dist,
			Bound:    cfg.Eps,
			BoundMC:  cfg.Eps,
			Samples:  res.Samples,
			UDFCalls: res.UDFCalls,
			Filtered: res.Filtered,
			TEPLower: res.TEP, TEPUpper: res.TEP,
			MetBudget: true,
			Engine:    EngineMC,
		}
		return out, EngineMC, nil
	}
	// GP path, with cost accounting during calibration.
	callsBefore := atomic.LoadInt64(&h.tf.calls)
	udfNsBefore := atomic.LoadInt64(&h.tf.totalNs)
	start := time.Now()
	out, err := h.eval.EvalWhere(input, pred, rng)
	wall := time.Since(start)
	if err != nil {
		return nil, EngineGP, err
	}
	out.Engine = EngineGP
	udfCalls := atomic.LoadInt64(&h.tf.calls) - callsBefore
	udfWall := time.Duration(atomic.LoadInt64(&h.tf.totalNs) - udfNsBefore)
	cost := wall - udfWall + time.Duration(udfCalls)*h.evalTime()
	h.gpCostNs += int64(cost)
	h.gpInputs++
	if !h.decided && h.inputs >= h.cfg.CalibrationInputs {
		h.decided = true
		if h.gpCostEstimate() <= h.mcCostEstimate() {
			h.choice = EngineGP
		} else {
			h.choice = EngineMC
		}
	}
	return out, EngineGP, nil
}

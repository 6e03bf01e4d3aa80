package query

import (
	"math/rand"

	"olgapro/internal/core"
	"olgapro/internal/dist"
	"olgapro/internal/mc"
	"olgapro/internal/udf"
)

// Engine evaluates a UDF on one uncertain input vector. Build one with
// NewEvaluatorEngine, NewMCEngine, or NewHybridEngine; every Output leaves
// the constructor-made engine with Output.Engine stamped, so routing
// decisions survive into query results regardless of which backend ran.
//
// pred is the calling stage's §5.5 predicate and the only one in force: a
// non-nil pred drives the backend's online filter for this input — a
// hopeless tuple comes back Filtered after as little inference as the
// Hoeffding check needs, and a survivor carries its TEP bounds — and nil
// means no filtering. A predicate in the backend's configuration
// (core.Config.Predicate, mc.Config.Predicate) does not act through an
// Engine.
type Engine interface {
	EvalInput(input dist.Vector, pred *mc.Predicate, rng *rand.Rand) (*core.Output, error)
}

// engine is the one concrete Engine implementation: a backend closure plus
// the stamp to apply. Stamping happens here — in exactly one place — rather
// than inside each backend; EngineUnknown means "trust the backend's own
// per-input stamp" (the hybrid router records which engine it chose).
type engine struct {
	eval  func(input dist.Vector, pred *mc.Predicate, rng *rand.Rand) (*core.Output, error)
	stamp core.Engine
}

// EvalInput runs the backend and stamps the output's engine tag.
func (e engine) EvalInput(input dist.Vector, pred *mc.Predicate, rng *rand.Rand) (*core.Output, error) {
	out, err := e.eval(input, pred, rng)
	if err != nil || out == nil {
		return out, err
	}
	if e.stamp != core.EngineUnknown {
		out.Engine = e.stamp
	}
	return out, nil
}

// NewEvaluatorEngine wraps an OLGAPRO GP evaluator (online-learning or a
// frozen clone) as a query Engine.
func NewEvaluatorEngine(ev *core.Evaluator) Engine {
	return engine{
		eval:  ev.EvalWhere,
		stamp: core.EngineGP,
	}
}

// NewMCEngine wraps direct Monte-Carlo evaluation (Algorithm 1) of f under
// cfg as a query Engine. The engine is stateless, so one value may be
// shared across pool workers.
func NewMCEngine(f udf.Func, cfg mc.Config) Engine {
	return engine{
		eval: func(input dist.Vector, pred *mc.Predicate, rng *rand.Rand) (*core.Output, error) {
			cfg := cfg
			cfg.Predicate = pred
			res, err := mc.Evaluate(f, input, cfg, rng)
			if err != nil {
				return nil, err
			}
			return &core.Output{
				Dist:      res.Dist,
				Bound:     cfg.Eps,
				BoundMC:   cfg.Eps,
				Samples:   res.Samples,
				UDFCalls:  res.UDFCalls,
				Filtered:  res.Filtered,
				TEPLower:  res.TEP,
				TEPUpper:  res.TEP,
				MetBudget: true,
			}, nil
		},
		stamp: core.EngineMC,
	}
}

// NewHybridEngine wraps the hybrid GP/MC router as a query Engine. The
// stamp is left to the router, which records the engine it chose per input.
func NewHybridEngine(h *core.Hybrid) Engine {
	return engine{
		eval: func(input dist.Vector, pred *mc.Predicate, rng *rand.Rand) (*core.Output, error) {
			out, _, err := h.EvalWhere(input, pred, rng)
			return out, err
		},
		stamp: core.EngineUnknown,
	}
}

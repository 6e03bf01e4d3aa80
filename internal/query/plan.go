package query

import (
	"fmt"

	"olgapro/internal/mc"
)

// TupleSeed derives the deterministic RNG seed for the tuple at stream
// ordinal seq from a plan's base seed, using the splitmix64 finalizer so
// adjacent ordinals yield statistically independent streams. It is the one
// seeding discipline shared by the serial planner (Plan.Apply, ApplyUDF
// with SeedPerTuple) and the parallel executor (internal/exec), which is
// what makes serial and parallel plans bit-identical.
func TupleSeed(base, seq int64) int64 {
	z := uint64(base) ^ (uint64(seq)+1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// ApplySpec configures a Plan.Apply stage.
type ApplySpec struct {
	// Inputs names the attributes forming the UDF input vector, in order.
	Inputs []string
	// As names the appended result attribute.
	As string
	// Seed is the base of the per-tuple RNG seeds (TupleSeed).
	Seed int64
	// Predicate, when non-nil, applies the §5.5 TEP filter: the engine
	// evaluates under it, filtered tuples are dropped and surviving
	// distributions truncated to [A, B].
	Predicate *mc.Predicate
	// KeepEnvelope retains each result's confidence envelope, required by
	// downstream Window/GroupBy/TopK stages ranking on the result.
	KeepEnvelope bool
}

// Plan is the fluent builder over the operator set — the uniform query API:
//
//	out, err := query.From(rel).
//		Where(pred).
//		Apply(eng, query.ApplySpec{Inputs: []string{"x0"}, As: "y", Seed: 7, KeepEnvelope: true}).
//		Window(query.WindowSpec{Size: 8, Aggs: []query.Agg{query.Avg("y")}}).
//		TopK(query.RankSpec{By: "avg_y", K: 3, Desc: true}).
//		Run()
//
// Each step appends one operator; the first construction error is retained
// and reported by Iter/Run, so call sites chain without per-step checks.
// Apply evaluates serially with per-tuple seeding (TupleSeed), which is
// bit-identical to running the same stage on an exec.Pool at any worker
// count; use Pipe to splice a pool (or any custom operator) into the plan.
type Plan struct {
	it  Iterator
	err error
}

// From starts a plan scanning an in-memory relation.
func From(tuples []*Tuple) *Plan { return &Plan{it: NewScan(tuples)} }

// FromIterator starts a plan pulling from an existing operator tree.
func FromIterator(it Iterator) *Plan {
	p := &Plan{it: it}
	if it == nil {
		p.err = fmt.Errorf("query: plan: nil input iterator")
	}
	return p
}

// Where appends a certain-attribute filter.
func (p *Plan) Where(pred func(*Tuple) (bool, error)) *Plan {
	if p.err != nil {
		return p
	}
	if pred == nil {
		p.err = fmt.Errorf("query: plan: nil Where predicate")
		return p
	}
	p.it = &Select{In: p.it, Pred: pred}
	return p
}

// Project appends a projection onto the named attributes.
func (p *Plan) Project(names ...string) *Plan {
	if p.err != nil {
		return p
	}
	if len(names) == 0 {
		p.err = fmt.Errorf("query: plan: empty projection")
		return p
	}
	p.it = &Project{In: p.it, Names: names}
	return p
}

// Apply appends a serial, per-tuple-seeded UDF application stage.
func (p *Plan) Apply(eng Engine, spec ApplySpec) *Plan {
	if p.err != nil {
		return p
	}
	if eng == nil {
		p.err = fmt.Errorf("query: plan: nil engine")
		return p
	}
	if len(spec.Inputs) == 0 || spec.As == "" {
		p.err = fmt.Errorf("query: plan: apply needs Inputs and As")
		return p
	}
	p.it = &ApplyUDF{
		In:           p.it,
		Inputs:       spec.Inputs,
		Out:          spec.As,
		Engine:       eng,
		SeedPerTuple: true,
		Seed:         spec.Seed,
		Predicate:    spec.Predicate,
		KeepEnvelope: spec.KeepEnvelope,
	}
	return p
}

// Window appends a sliding-window bounded aggregation.
func (p *Plan) Window(spec WindowSpec) *Plan {
	if p.err != nil {
		return p
	}
	p.it = NewWindow(p.it, spec)
	return p
}

// GroupBy appends a grouped bounded aggregation.
func (p *Plan) GroupBy(spec GroupBySpec) *Plan {
	if p.err != nil {
		return p
	}
	p.it = NewGroupBy(p.it, spec)
	return p
}

// TopK appends a bounded top-k (K > 0) or full ranking (K ≤ 0).
func (p *Plan) TopK(spec RankSpec) *Plan {
	if p.err != nil {
		return p
	}
	if spec.By == "" {
		p.err = fmt.Errorf("query: plan: top-k needs By")
		return p
	}
	p.it = NewTopK(p.it, spec)
	return p
}

// OrderBy appends a full bounded ranking on the attribute's mean.
func (p *Plan) OrderBy(by string, desc bool) *Plan {
	return p.TopK(RankSpec{By: by, Desc: desc})
}

// Pipe splices a caller-built operator over the plan's current iterator —
// the hook for stages the builder doesn't construct itself, e.g. a parallel
// exec.Pool Apply stage or a custom operator.
func (p *Plan) Pipe(wrap func(Iterator) Iterator) *Plan {
	if p.err != nil {
		return p
	}
	if wrap == nil {
		p.err = fmt.Errorf("query: plan: nil Pipe stage")
		return p
	}
	it := wrap(p.it)
	if it == nil {
		p.err = fmt.Errorf("query: plan: Pipe stage returned nil")
		return p
	}
	p.it = it
	return p
}

// Iter returns the built operator tree, or the first construction error.
func (p *Plan) Iter() (Iterator, error) {
	if p.err != nil {
		return nil, p.err
	}
	return p.it, nil
}

// Run builds and drains the plan.
func (p *Plan) Run() ([]*Tuple, error) {
	it, err := p.Iter()
	if err != nil {
		return nil, err
	}
	return Drain(it)
}

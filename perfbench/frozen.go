package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"olgapro/client"
	"olgapro/internal/query"
)

// frozenOp is one served frozen request, kept for the core replay.
type frozenOp struct {
	inst instance
	req  client.EvalRequest
	hash string
}

// replayOps is how many traced frozen ops the core replay re-evaluates.
const replayOps = 400

// runServeFrozen measures single-tuple frozen reads. Set-up boots one shard
// and registers galage and comovevol with 256-tuple warmups; two clients
// then send learn=false evals for Zipf-popular galaxies.
func runServeFrozen(o opts) (*outcome, error) {
	ctx := context.Background()
	cat := newCatalog()
	insts := frozenInstances(cat)
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	oc := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}

	var setups []float64
	var st *stack
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		var err error
		if st, err = bootShards(tr, 1); err != nil {
			return nil, err
		}
		cl := st.client(nil)
		for _, in := range insts {
			if _, err := cl.Register(ctx, in.register()); err != nil {
				st.close()
				return nil, fmt.Errorf("register %s: %w", in.name, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()

	// Every repeat of a (galaxy, instance) request must return the support of
	// its first answer; the first answers are kept for the audit.
	var mu sync.Mutex
	first := map[int]served{}
	measure := func(traced bool) (*phase, []frozenOp, error) {
		p := &phase{}
		var ops []frozenOp
		clients := make([]*client.Client, zipfClient)
		gens := make([]*frozenGen, zipfClient)
		for k := range clients {
			clients[k] = st.client(tr)
			gens[k] = newFrozenGen(o.seed, k, cat, insts)
		}
		calls0, retr0, err := st.udfCounters(ctx)
		if err != nil {
			return nil, nil, err
		}
		if traced {
			tr.on.Store(true)
		}
		a := readCounters()
		closedLoop(p, len(clients), untilDeadline(o.phaseLen(), o.minOps(1000)), func(k, i int) (int, error) {
			key, in, req := gens[k].next()
			res, err := clients[k].Eval(ctx, in.name, req)
			if err != nil {
				return 0, err
			}
			mu.Lock()
			defer mu.Unlock()
			if f, ok := first[key]; !ok {
				first[key] = served{udf: in.udf, input: req.Input, res: res}
			} else if f.res.SupportHash != res.SupportHash {
				return 0, fmt.Errorf("galaxy %d on %s: support %s, earlier %s", key/2, in.name, res.SupportHash, f.res.SupportHash)
			}
			p.bounds = append(p.bounds, res.Bound)
			if res.MetBudget {
				p.metBudget++
			}
			if traced && len(ops) < replayOps {
				ops = append(ops, frozenOp{inst: in, req: req, hash: res.SupportHash})
			}
			return 1, nil
		})
		b := readCounters()
		if traced {
			tr.on.Store(false)
		}
		p.charge(a, b)
		calls1, retr1, err := st.udfCounters(ctx)
		if err != nil {
			return nil, nil, err
		}
		p.udfCalls, p.retrains = calls1-calls0, retr1-retr0
		return p, ops, nil
	}

	p0, _, err := measure(false)
	if err != nil {
		return nil, err
	}
	oc.addOps(p0)
	for k, v := range p0.endToEnd(99) {
		oc.e2e[k] = v
	}
	oc.e2e["setup_s"] = median(setups)
	fmt.Printf("# serve_frozen: %d ops over %d distinct requests\n", len(p0.lat), len(first))
	if err := auditFrozen(oc, first, o.seed); err != nil {
		return nil, err
	}
	if !o.trace {
		oc.e2e["live_heap_mb"] = heapOf(&st)
		return oc, nil
	}

	p1, ops, err := measure(true)
	if err != nil {
		return nil, err
	}
	oc.addOps(p1)
	spans := tr.take()
	saveSpans(o, spans)
	spanLayers(newTraceTree(spans), p1, oc.layer)

	rp, err := replayFrozen(ctx, st, insts, ops)
	if err != nil {
		return nil, err
	}
	commonLayers(oc.layer, p0, p0.lat, p1, rp, oc.layer["server.handler_ms"])
	pts, err := trainingPoints(ctx, st)
	if err != nil {
		return nil, err
	}
	oc.layer["core.training_points"] = pts
	oc.e2e["live_heap_mb"] = heapOf(&st)
	return oc, nil
}

// auditFrozen runs the (ε, δ) audit over the distinct served requests.
func auditFrozen(oc *outcome, first map[int]served, seed int64) error {
	keys := make([]int, 0, len(first))
	for k := range first {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	items := make([]served, len(keys))
	for i, k := range keys {
		items[i] = first[k]
	}
	audit, err := auditEpsDelta(items, frozenEps, 0.05, seed)
	if err != nil {
		return err
	}
	oc.layer["core.audit_violation_frac"] = checkAudit(oc, "serve_frozen", audit)
	return nil
}

// replayFrozen re-evaluates traced frozen ops on frozen clones of the
// instances' fetched models.
func replayFrozen(ctx context.Context, st *stack, insts []instance, ops []frozenOp) (*replay, error) {
	models, err := frozenModels(ctx, st, insts)
	if err != nil {
		return nil, err
	}
	rp := &replay{}
	for _, op := range ops {
		if err := rp.eval(models[op.inst.name], op.req.Input, query.TupleSeed(op.req.Seed, 0), op.hash, nil); err != nil {
			return nil, err
		}
	}
	for _, m := range models {
		rp.finish(m)
	}
	fmt.Printf("# replay: %d of %d frozen tuples reproduced\n", rp.matched, rp.tuples)
	return rp, nil
}

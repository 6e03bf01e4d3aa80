package main

import (
	"context"
	"fmt"
	"time"

	"olgapro/client"
	"olgapro/internal/query"
)

// runLearnCold measures cold models learning their first tuples. A round
// boots one shard, registers 16 cold instances (its set-up), then two
// clients send each instance its 64 learning tuples, each client cycling
// over its own 8 instances. Rounds repeat, each with new instances and
// tuples, until the phase's time is up: one round's 16 cold starts vary
// too much from seed to seed to stand for the workload alone. The traced
// phase is exactly round 0, so its counts (UDF calls, points added,
// retrains) repeat exactly for a seed.
func runLearnCold(o opts) (*outcome, error) {
	ctx := context.Background()
	cat := newCatalog()
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	oc := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	var setups []float64

	boot := func(plan []instance) (*stack, error) {
		start := time.Now()
		st, err := bootShards(tr, 1)
		if err != nil {
			return nil, err
		}
		cl := st.client(nil)
		for _, in := range plan {
			if _, err := cl.Register(ctx, in.register()); err != nil {
				st.close()
				return nil, fmt.Errorf("register %s: %w", in.name, err)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		return st, nil
	}
	for i := 0; i < setupRuns; i++ {
		st, err := boot(coldPlan(o.seed, 0, cat))
		if err != nil {
			return nil, err
		}
		st.close()
	}

	type round struct {
		st      *stack
		plan    []instance
		results [][]served
		lat     []float64
		cold    []*client.FetchedSnapshot // traced rounds: models before learning
	}
	perClient := coldInstances / 2
	runRound := func(p *phase, index int, traced bool) (*round, error) {
		plan := coldPlan(o.seed, index, cat)
		st, err := boot(plan)
		if err != nil {
			return nil, err
		}
		r := &round{st: st, plan: plan, results: make([][]served, coldInstances)}
		if traced {
			for _, in := range plan {
				fs, err := st.client(nil).FetchSnapshot(ctx, in.name, -1)
				if err != nil {
					st.close()
					return nil, fmt.Errorf("fetch cold snapshot %s: %w", in.name, err)
				}
				r.cold = append(r.cold, fs)
			}
		}
		for i := range r.results {
			r.results[i] = make([]served, coldTuples)
		}
		clients := []*client.Client{st.client(tr), st.client(tr)}
		calls0, retr0, err := st.udfCounters(ctx)
		if err != nil {
			st.close()
			return nil, err
		}
		if traced {
			tr.on.Store(true)
		}
		a := readCounters()
		before := len(p.lat)
		closedLoop(p, len(clients), func(k, i int) bool { return i >= perClient*coldTuples },
			func(k, i int) (int, error) {
				idx, j := k*perClient+i%perClient, i/perClient
				in := plan[idx]
				res, err := clients[k].Eval(ctx, in.name, in.reqs[j])
				if err != nil {
					return 0, err
				}
				r.results[idx][j] = served{udf: in.udf, input: in.reqs[j].Input, res: res}
				return 1, nil
			})
		b := readCounters()
		if traced {
			tr.on.Store(false)
		}
		p.charge(a, b)
		r.lat = append([]float64(nil), p.lat[before:]...)
		calls1, retr1, err := st.udfCounters(ctx)
		if err != nil {
			st.close()
			return nil, err
		}
		p.udfCalls += calls1 - calls0
		p.retrains += retr1 - retr0
		for _, rs := range r.results {
			p.noteServed(rs)
		}
		return r, nil
	}
	// measure runs whole rounds until the phase's time has passed and
	// returns the first and the last round. The traced phase is round 0
	// alone, its stack left up for the replay; the untraced phase closes
	// every stack, measuring the live heap on round 0's, which is the same
	// for a seed however many rounds fit.
	measure := func(traced bool) (p *phase, first, last *round, heapMB float64, err error) {
		p = &phase{}
		start := time.Now()
		for i := 0; ; i++ {
			r, err := runRound(p, i, traced)
			if err != nil {
				return nil, nil, nil, 0, err
			}
			if traced {
				return p, r, r, 0, nil
			}
			if i == 0 {
				first, heapMB = r, heapOf(&r.st)
			} else {
				r.st.close()
			}
			if time.Since(start) >= o.phaseLen() {
				return p, first, r, heapMB, nil
			}
		}
	}

	p0, first0, last, heapMB, err := measure(false)
	if err != nil {
		return nil, err
	}
	oc.addOps(p0)
	for k, v := range p0.endToEnd(99) {
		oc.e2e[k] = v
	}
	oc.e2e["setup_s"] = median(setups)
	oc.e2e["live_heap_mb"] = heapMB
	fmt.Printf("# learn_cold: %d rounds, %d ops, %d UDF calls (%.4f per tuple)\n",
		len(p0.lat)/(coldInstances*coldTuples), len(p0.lat), p0.udfCalls, float64(p0.udfCalls)/float64(p0.tuples))

	var items []served
	for _, rs := range last.results {
		items = append(items, rs...)
	}
	audit, err := auditEpsDelta(items, coldEps, 0.05, o.seed)
	if err != nil {
		return nil, err
	}
	oc.layer["core.audit_violation_frac"] = checkAudit(oc, o.workload, audit)

	if !o.trace {
		return oc, nil
	}
	p1, _, last, _, err := measure(true)
	if err != nil {
		return nil, err
	}
	defer last.st.close()
	oc.addOps(p1)
	spans := tr.take()
	saveSpans(o, spans)
	spanLayers(newTraceTree(spans), p1, oc.layer)

	rp := &replay{}
	for idx, in := range last.plan {
		ev, tf, err := restoreFrom(last.cold[idx])
		if err != nil {
			return nil, err
		}
		m := replayModel{ev, tf} // learns on, as the server did
		for j, req := range in.reqs {
			if err := rp.eval(m, req.Input, query.TupleSeed(req.Seed, 0), last.results[idx][j].res.SupportHash, nil); err != nil {
				return nil, err
			}
		}
		rp.finish(m)
	}
	fmt.Printf("# replay: %d of %d learned tuples reproduced with %d UDF calls (served: %d)\n",
		rp.matched, rp.tuples, rp.udfCalls, p1.udfCalls)
	// Tracing overhead on the same tuples: round 0 untraced and traced.
	commonLayers(oc.layer, p0, first0.lat, p1, rp, oc.layer["server.handler_ms"])
	pts, err := trainingPoints(ctx, last.st)
	if err != nil {
		return nil, err
	}
	oc.layer["core.training_points"] = pts
	return oc, nil
}

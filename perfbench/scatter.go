package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	"olgapro/client"
	"olgapro/internal/fleet"
	"olgapro/internal/query"
	"olgapro/internal/sdss"
)

// controlQueries is how many seeded queries are compared byte for byte with
// the solo-shard control.
const controlQueries = 3

// ownedNames picks one instance name per shard that the ring places on it.
func ownedNames(urls []string) ([]string, error) {
	ring, err := fleet.NewRing(urls, 0)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(urls))
	found := 0
	for i := 0; found < len(urls) && i < 10000; i++ {
		cand := fmt.Sprintf("vol%d", i)
		for s, u := range urls {
			if names[s] == "" && ring.Owner(cand) == u {
				names[s] = cand
				found++
			}
		}
	}
	if found < len(urls) {
		return nil, fmt.Errorf("no instance name found for every shard")
	}
	return names, nil
}

// scatterInstances are the comovevol instances, one per name, each with its
// own warmup.
func scatterInstances(names []string, cat []sdss.Galaxy) []instance {
	out := make([]instance, len(names))
	for i, n := range names {
		out[i] = warmInstance(n, "astro/comovevol", frozenEps, 10+int64(i), cat)
	}
	return out
}

// runQueryScatter measures bounded queries through the router. Set-up boots
// three shards and a router and registers one warmed comovevol instance per
// shard; one client then sends 384-row predicate → group-by → top-k plans,
// each with a fresh seed.
func runQueryScatter(o opts) (*outcome, error) {
	ctx := context.Background()
	cat := newCatalog()
	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	oc := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}

	boot := func(t *tracer, shards int, names []string) (*stack, []instance, error) {
		st, err := bootFleet(t, shards)
		if err != nil {
			return nil, nil, err
		}
		if names == nil {
			if names, err = ownedNames(st.shardURLs()); err != nil {
				st.close()
				return nil, nil, err
			}
		}
		insts := scatterInstances(names, cat)
		cl := st.client(nil)
		for _, in := range insts {
			if _, err := cl.Register(ctx, in.register()); err != nil {
				st.close()
				return nil, nil, fmt.Errorf("register %s: %w", in.name, err)
			}
		}
		return st, insts, nil
	}
	var setups []float64
	var st *stack
	var insts []instance
	for i := 0; i < setupRuns; i++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		var err error
		if st, insts, err = boot(tr, scatterShards, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() {
		if st != nil {
			st.close()
		}
	}()
	names := make([]string, len(insts))
	for i, in := range insts {
		names[i] = in.name
	}
	rows, pred := scatterRelation(o.seed, cat, names)

	queries := 0 // seeds 0..queries-1 of the query-seed stream are used
	measure := func(traced bool) (*phase, error) {
		p := &phase{}
		cl := st.client(tr)
		calls0, retr0, err := st.udfCounters(ctx)
		if err != nil {
			return nil, err
		}
		if traced {
			tr.on.Store(true)
		}
		a := readCounters()
		closedLoop(p, 1, untilDeadline(o.phaseLen(), o.minOps(100)), func(_, i int) (int, error) {
			seed := mix64(o.seed+1, int64(queries+i))
			raw, err := cl.Query(ctx, scatterPlan(rows, pred, seed))
			if err != nil {
				return 0, err
			}
			var resp client.QueryResponse
			if err := json.Unmarshal(raw, &resp); err != nil {
				return 0, fmt.Errorf("query answer: %w", err)
			}
			if resp.Dropped < 0 || resp.Dropped >= len(rows) || len(resp.Rows) == 0 {
				return 0, fmt.Errorf("query answer has %d rows, %d dropped of %d", len(resp.Rows), resp.Dropped, len(rows))
			}
			p.dropped += resp.Dropped
			p.answer += len(resp.Rows)
			return len(rows), nil
		})
		b := readCounters()
		if traced {
			tr.on.Store(false)
		}
		p.charge(a, b)
		queries += p.attempted
		calls1, retr1, err := st.udfCounters(ctx)
		if err != nil {
			return nil, err
		}
		p.udfCalls, p.retrains = calls1-calls0, retr1-retr0
		return p, nil
	}

	p0, err := measure(false)
	if err != nil {
		return nil, err
	}
	oc.addOps(p0)
	for k, v := range p0.endToEnd(90) {
		oc.e2e[k] = v
	}
	oc.e2e["setup_s"] = median(setups)
	fmt.Printf("# query_scatter: %d queries, %.3f of rows dropped\n",
		len(p0.lat), float64(p0.dropped)/float64(p0.tuples))

	var p1 *phase
	var rp *replay
	if o.trace {
		if p1, err = measure(true); err != nil {
			return nil, err
		}
		oc.addOps(p1)
		spans := tr.take()
		saveSpans(o, spans)
		spanLayers(newTraceTree(spans), p1, oc.layer)
		var items []served
		if rp, items, err = replayScatter(ctx, st, insts, rows, pred, mix64(o.seed+2, 0)); err != nil {
			return nil, err
		}
		audit, err := auditEpsDelta(items, frozenEps, 0.05, o.seed)
		if err != nil {
			return nil, err
		}
		oc.layer["core.audit_violation_frac"] = checkAudit(oc, o.workload, audit)
		pts, err := trainingPoints(ctx, st)
		if err != nil {
			return nil, err
		}
		oc.layer["core.training_points"] = pts
	}

	// Answers over three shards must equal, byte for byte, a single shard
	// holding the same registrations.
	var answers [][]byte
	cl := st.client(nil)
	for q := 0; q < controlQueries; q++ {
		raw, err := cl.Query(ctx, scatterPlan(rows, pred, mix64(o.seed+3, int64(q))))
		if err != nil {
			return nil, fmt.Errorf("control query on the fleet: %w", err)
		}
		answers = append(answers, raw)
	}
	oc.e2e["live_heap_mb"] = heapOf(&st)
	solo, _, err := boot(nil, 1, names)
	if err != nil {
		return nil, err
	}
	defer solo.close()
	scl := solo.client(nil)
	for q, want := range answers {
		raw, err := scl.Query(ctx, scatterPlan(rows, pred, mix64(o.seed+3, int64(q))))
		if err != nil {
			return nil, fmt.Errorf("control query on the solo shard: %w", err)
		}
		oc.check(bytes.Equal(raw, want), "control query %d: three-shard answer differs from the solo shard", q)
	}

	if o.trace {
		p1.bounds = rp.bounds
		p1.metBudget = rp.metBudget
		perTuple := oc.layer["server.handler_ms"] * oc.layer["fleet.subreqs_per_query"] / scatterRows
		commonLayers(oc.layer, p0, p0.lat, p1, rp, perTuple)
	}
	return oc, nil
}

// replayScatter runs one predicate-free query over the relation to get
// every row's served result, then re-evaluates the rows in process on
// frozen clones of the instances' fetched models. It also returns the
// served rows for the (ε, δ) audit.
func replayScatter(ctx context.Context, st *stack, insts []instance, rows []client.QueryRow, pred client.PredicateSpec, seed int64) (*replay, []served, error) {
	raw, err := st.client(nil).Query(ctx, client.QueryRequest{Rows: rows, Seed: seed})
	if err != nil {
		return nil, nil, fmt.Errorf("replay query: %w", err)
	}
	var resp client.QueryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, nil, fmt.Errorf("replay query answer: %w", err)
	}
	if len(resp.Rows) != len(rows) {
		return nil, nil, fmt.Errorf("replay query returned %d rows for %d", len(resp.Rows), len(rows))
	}
	models, err := frozenModels(ctx, st, insts)
	if err != nil {
		return nil, nil, err
	}
	rp := &replay{}
	var items []served
	for i, row := range rows {
		var res *client.EvalResult
		for _, v := range resp.Rows[i] {
			if v.Name == "y" {
				res = v.Result
			}
		}
		if res == nil {
			return nil, nil, fmt.Errorf("replay query row %d has no result", i)
		}
		items = append(items, served{udf: "astro/comovevol", input: row.Input, res: *res})
		rp.bounds = append(rp.bounds, res.Bound)
		if res.MetBudget {
			rp.metBudget++
		}
		if err := rp.eval(models[row.UDF], row.Input, query.TupleSeed(seed, int64(i)), res.SupportHash, &pred); err != nil {
			return nil, nil, err
		}
	}
	for _, m := range models {
		rp.finish(m)
	}
	fmt.Printf("# replay: %d of %d query rows reproduced\n", rp.matched, rp.tuples)
	return rp, items, nil
}

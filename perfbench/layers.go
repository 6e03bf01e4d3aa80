package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanLayers fills the client, hop, server, fleet and query metrics from
// the traced phase p's spans. The outermost handler is the router's on the
// router path and the shard's otherwise; fleet metrics read 0 off the
// router path.
func spanLayers(tt *traceTree, p *phase, m map[string]float64) {
	var rtt, hop, reqB, respB, handler, self, subreqs, partials, skew []float64
	retries := 0
	for _, root := range tt.roots() {
		rtt = append(rtt, ms(root.dur()))
		reqB = append(reqB, float64(root.ReqBytes)/1024)
		respB = append(respB, float64(root.RespBytes)/1024)
		outer := tt.named(root.Req, spanFleet)
		if len(outer) == 0 {
			outer = tt.named(root.Req, spanServer)
		}
		if len(outer) != 1 {
			continue
		}
		hop = append(hop, ms(root.dur()-outer[0].dur()))
		if outer[0].Name != spanFleet {
			continue
		}
		handler = append(handler, ms(outer[0].dur()))
		subs := tt.named(root.Req, spanSubreq)
		ivs := make([]interval, len(subs))
		var bytesIn int64
		lo, hi := time.Duration(1<<62), time.Duration(0)
		for i, s := range subs {
			ivs[i] = s.interval()
			bytesIn += s.RespBytes
			lo, hi = min(lo, s.dur()), max(hi, s.dur())
			if s.Status == 0 || s.Status >= 300 {
				retries++
			}
		}
		self = append(self, ms(selfTime(outer[0].interval(), ivs)))
		subreqs = append(subreqs, float64(len(subs)))
		partials = append(partials, float64(bytesIn)/1024)
		if len(subs) > 0 {
			skew = append(skew, ms(hi-lo))
		}
	}
	m["client.rtt_ms"] = mean(rtt)
	m["client.req_kb"] = mean(reqB)
	m["client.resp_kb"] = mean(respB)
	m["hop.ms"] = mean(hop)
	m["fleet.handler_ms"] = mean(handler)
	m["fleet.self_ms"] = mean(self)
	m["fleet.subreqs_per_query"] = mean(subreqs)
	m["fleet.retries"] = float64(retries)
	m["fleet.partials_kb_per_query"] = mean(partials)
	m["fleet.shard_skew_ms"] = mean(skew)
	m["query.dropped_frac"] = float64(p.dropped) / float64(p.tuples)
	m["query.answer_rows"] = float64(p.answer) / float64(len(p.lat))
	serverLayer(tt, m)
}

// serverLayer fills server.handler_ms and server.refused from the shard
// handler spans.
func serverLayer(tt *traceTree, m map[string]float64) {
	var handler []float64
	refused := 0
	for _, spans := range tt.byReq {
		for _, s := range spans {
			if s.Name != spanServer {
				continue
			}
			handler = append(handler, ms(s.dur()))
			if s.Status == 429 {
				refused++
			}
		}
	}
	m["server.handler_ms"] = mean(handler)
	m["server.refused"] = float64(refused)
}

// commonLayers fills the metrics every workload derives the same way from
// its untraced phase p0, traced phase p1 and replay. untraced are op
// latencies without tracing on the traced phase's kind of tuples, the base
// of the tracing overhead; handlerPerTuple is the shard handler time per
// evaluated tuple.
func commonLayers(m map[string]float64, p0 *phase, untraced []float64, p1 *phase, rp *replay, handlerPerTuple float64) {
	rp.metrics(m)
	t := float64(p1.tuples)
	m["udf.calls_per_tuple"] = float64(p1.udfCalls) / t
	m["core.retrains_per_1k"] = float64(p1.retrains) * 1000 / t
	m["core.bound_mean"] = mean(p1.bounds)
	m["core.met_budget_frac"] = float64(p1.metBudget) / float64(len(p1.bounds))
	if core := m["core.eval_ms_per_tuple"]; core == unmeasured {
		m["server.self_ms_per_tuple"] = unmeasured
		m["udf.share"] = unmeasured
	} else {
		m["server.self_ms_per_tuple"] = handlerPerTuple - core
		m["udf.share"] = m["udf.calls_per_tuple"] * m["udf.ms_per_call"] / handlerPerTuple
	}
	m["go.gc_cpu_frac"] = p0.gcCPU / p0.allCPU
	m["go.gc_cycles"] = float64(p0.gcCycles)
	base, traced := median(untraced), median(p1.lat)
	m["trace.overhead_frac"] = (traced - base) / base
	fmt.Printf("# tracing overhead: p50 %.4f ms untraced, %.4f ms traced\n", base, traced)
}

// trainingPoints is the mean training-set size over the stack's instances.
func trainingPoints(ctx context.Context, st *stack) (float64, error) {
	var pts []float64
	for _, url := range st.shardURLs() {
		l, err := st.clientFor(nil, url).ListUDFs(ctx)
		if err != nil {
			return 0, fmt.Errorf("list udfs: %w", err)
		}
		for _, u := range l.UDFs {
			pts = append(pts, float64(u.TrainingPoints))
		}
	}
	return mean(pts), nil
}

// saveSpans writes the traced phase's spans next to the build output.
func saveSpans(o opts, spans []span) {
	if o.spansDir == "" {
		return
	}
	path := filepath.Join(o.spansDir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	if err := writeSpans(path, spans); err != nil {
		fmt.Fprintln(os.Stderr, "spans not saved:", err)
		return
	}
	fmt.Printf("# %d spans written to %s\n", len(spans), path)
}

// heapOf measures the live heap a stack holds: the heap with the stack up
// minus the heap after it is closed and dropped, both after forced
// collections. It clears *st so that the caller holds no reference.
func heapOf(st **stack) float64 {
	up := liveHeap()
	(*st).close()
	*st = nil
	time.Sleep(10 * time.Millisecond) // let closed connections' goroutines exit
	down := liveHeap()
	return (float64(up) - float64(down)) / (1 << 20)
}

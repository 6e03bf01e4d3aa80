package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"olgapro/internal/core"
	"olgapro/internal/mc"
	"olgapro/internal/query"
	"olgapro/internal/server/wire"
)

// pushdownRows builds n rows spread over poly/smooth2d's input square with
// narrow inputs, labeled into three groups, so pushdownPred drops some rows,
// keeps some certainly and keeps the rest as maybe-tuples.
func pushdownRows(n int) []map[string]any {
	rng := rand.New(rand.NewSource(17))
	rows := make([]map[string]any, n)
	for i := range rows {
		rows[i] = map[string]any{
			"input": wire.InputSpec{
				{Type: "normal", Mu: 0.1 + 0.8*rng.Float64(), Sigma: 0.05},
				{Type: "normal", Mu: 0.1 + 0.8*rng.Float64(), Sigma: 0.05},
			},
			"group": string(rune('a' + i%3)),
		}
	}
	return rows
}

// pushdownPred keeps the upper part of the output range over pushdownRows.
var pushdownPred = mc.Predicate{A: 0.6, B: 100, Theta: 0.5}

// serialPredicatePlan evaluates rows (the union relation, ordinal = row
// index) through a serial query.Plan.Apply on a fresh frozen clone of the
// UDF's model, with the same predicate and seed a query request carries. It
// returns the survivors, the drop count and the UDF's ε.
func serialPredicatePlan(t *testing.T, s *Server, name string, rows []map[string]any, seed int64, pred *mc.Predicate) ([]*query.Tuple, int, float64) {
	t.Helper()
	e, ok := s.reg.Get(name)
	if !ok {
		t.Fatalf("no UDF %q", name)
	}
	var clone *core.Evaluator
	if err := e.withWriter(context.Background(), func(ev *core.Evaluator) error {
		var err error
		clone, err = ev.CloneFrozen()
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tuples := make([]*query.Tuple, len(rows))
	for i, row := range rows {
		tp, err := row["input"].(wire.InputSpec).Tuple(int64(i))
		if err != nil {
			t.Fatal(err)
		}
		g, _ := row["group"].(string)
		tuples[i] = tp.With("g", query.Str(g))
	}
	it, err := query.From(tuples).Apply(query.NewEvaluatorEngine(clone), query.ApplySpec{
		Inputs: wire.AttrNames(e.def.entry.Dim), As: "y", Seed: seed, Predicate: pred, KeepEnvelope: true,
	}).Iter()
	if err != nil {
		t.Fatal(err)
	}
	survivors, err := query.Drain(it)
	if err != nil {
		t.Fatal(err)
	}
	return survivors, it.(*query.ApplyUDF).Dropped, e.cfg.Eps
}

// encodeRows is the wire encoding of answer tuples, as the handlers emit it.
func encodeRows(t *testing.T, tuples []*query.Tuple, eps float64) []byte {
	t.Helper()
	rows := make([][]wire.QueryValue, len(tuples))
	for i, tp := range tuples {
		row, err := encodeQueryTuple(tp, eps)
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = row
	}
	b, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestQueryPredicatePushdownMatchesSerialPlan: /v1/query and
// /v1/query/partials under a predicate answer exactly what a serial
// Plan.Apply with the same predicate and seed on a frozen clone computes —
// the same survivors, the same drop count, and the same envelope TEP bounds
// (which decide existence certainty, so they surface in rank keys and
// group counts).
func TestQueryPredicatePushdownMatchesSerialPlan(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	rows := pushdownRows(24)
	const seed = 31
	pred := pushdownPred
	survivors, dropped, eps := serialPredicatePlan(t, s, name, rows, seed, &pred)
	if dropped == 0 || len(survivors) == 0 {
		t.Fatalf("predicate should split the relation: %d survivors, %d dropped", len(survivors), dropped)
	}
	certain := 0
	for _, tp := range survivors {
		v := tp.MustGet("y")
		// TEP is a quotient of counts, the bounds differences of CDF values.
		if v.Out.TEPUpper < pred.Theta || v.Out.TEPLower > v.TEP+1e-12 || v.Out.Filtered {
			t.Fatalf("survivor %d TEP bounds [%g, %g] around %g", tp.MustGet("id").I, v.Out.TEPLower, v.Out.TEPUpper, v.TEP)
		}
		if v.Out.TEPLower >= 1 {
			certain++
		}
	}
	if certain == 0 || certain == len(survivors) {
		t.Fatalf("%d of %d survivors certain; want both certain and maybe tuples", certain, len(survivors))
	}
	predSpec := wire.SpecOfPredicate(&pred)

	// /v1/query, stageless and with a group-by whose counts rest on the
	// survivors' TEP lower bounds.
	for _, groupBy := range []bool{false, true} {
		req := map[string]any{"udf": name, "rows": rows, "seed": seed, "predicate": predSpec}
		want := survivors
		if groupBy {
			spec := query.GroupBySpec{Keys: []string{"g"}, Aggs: []query.Agg{query.Count(), query.Max("y")}}
			req["group_by"] = map[string]any{"keys": []string{"g"},
				"aggs": []map[string]any{{"kind": "count"}, {"kind": "max", "attr": "y"}}}
			var err error
			if want, err = query.From(survivors).GroupBy(spec).Run(); err != nil {
				t.Fatal(err)
			}
		}
		resp, body := postJSON(t, ts.URL+"/v1/query", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d %s", resp.StatusCode, body)
		}
		var qr struct {
			Dropped int             `json:"dropped"`
			Rows    json.RawMessage `json:"rows"`
		}
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatal(err)
		}
		if qr.Dropped != dropped {
			t.Fatalf("group_by=%v: dropped %d, serial plan %d", groupBy, qr.Dropped, dropped)
		}
		if got, want := []byte(qr.Rows), encodeRows(t, want, eps); !bytes.Equal(got, want) {
			t.Fatalf("group_by=%v: rows differ from the serial plan:\n%s\nvs\n%s", groupBy, got, want)
		}
	}

	// /v1/query/partials over two interleaved shards of the union relation:
	// stageless rows and top-k rank keys match the serial survivors at the
	// same global ordinals, and the drop counts add up.
	byOrd := map[int64]*query.Tuple{}
	for _, tp := range survivors {
		byOrd[tp.MustGet("id").I] = tp
	}
	rank := query.RankSpec{By: "y", K: 3, Desc: true}
	shardDropped := 0
	for shard := 0; shard < 2; shard++ {
		var prow []map[string]any
		for i := shard; i < len(rows); i += 2 {
			prow = append(prow, map[string]any{"ord": i, "input": rows[i]["input"], "group": rows[i]["group"]})
		}
		for _, topk := range []bool{false, true} {
			req := map[string]any{"udf": name, "rows": prow, "seed": seed, "predicate": predSpec}
			if topk {
				req["topk"] = map[string]any{"k": rank.K, "by": rank.By, "desc": rank.Desc}
			}
			resp, body := postJSON(t, ts.URL+"/v1/query/partials", req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("partials: %d %s", resp.StatusCode, body)
			}
			var qp wire.QueryPartials
			if err := json.Unmarshal(body, &qp); err != nil {
				t.Fatal(err)
			}
			if !topk {
				shardDropped += qp.Dropped
			}
			for _, pr := range qp.Rows {
				tp, ok := byOrd[pr.Ord]
				if !ok {
					t.Fatalf("shard %d: ordinal %d survived, the serial plan dropped it", shard, pr.Ord)
				}
				if topk {
					key, err := query.RankKeyOf(tp, rank, pr.Ord)
					if err != nil {
						t.Fatal(err)
					}
					if *pr.Rank != wire.RankKeyOf(key) || key.Sure != (tp.MustGet("y").Out.TEPLower >= 1) {
						t.Fatalf("shard %d ordinal %d: rank key %+v, serial %+v", shard, pr.Ord, *pr.Rank, key)
					}
					continue
				}
				got, err := json.Marshal(pr.Row)
				if err != nil {
					t.Fatal(err)
				}
				if want := encodeRows(t, []*query.Tuple{tp}, eps); !bytes.Equal([]byte(fmt.Sprintf("[%s]", got)), want) {
					t.Fatalf("shard %d ordinal %d: row %s, serial %s", shard, pr.Ord, got, want)
				}
			}
			if !topk && len(qp.Rows)+qp.Dropped != len(prow) {
				t.Fatalf("shard %d: %d rows + %d dropped of %d", shard, len(qp.Rows), qp.Dropped, len(prow))
			}
		}
	}
	if shardDropped != dropped {
		t.Fatalf("shards dropped %d, serial plan %d", shardDropped, dropped)
	}
}

// TestQueryCertainSurvivorsCountExactly is the regression test for loose
// group counts under a predicate: when every survivor's output envelope
// lies inside [A, B], each survivor certainly exists, so a group count is
// certain with lo = hi. A survivor evaluated without the predicate carries
// no TEP bounds, counts as a maybe-tuple, and leaves the count at [0, n].
func TestQueryCertainSurvivorsCountExactly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	name := registerSmooth(t, ts.URL)
	resp, body := postJSON(t, ts.URL+"/v1/query", map[string]any{
		"udf": name, "rows": queryRows(12, 3), "seed": 8,
		"predicate": map[string]any{"a": -100.0, "b": 100.0, "theta": 0.5},
		"group_by": map[string]any{
			"keys": []string{"g"},
			"aggs": []map[string]any{{"kind": "count"}},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr wire.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Dropped != 0 || len(qr.Rows) != 3 {
		t.Fatalf("%d groups, %d dropped", len(qr.Rows), qr.Dropped)
	}
	for _, row := range qr.Rows {
		for _, v := range row {
			if v.Name != "count" {
				continue
			}
			if b := v.Bounded; b == nil || !b.Certain || b.Lo != 4 || b.Hi != 4 {
				t.Fatalf("group count %+v, want certain 4", v.Bounded)
			}
		}
	}
}

package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"olgapro/client"
	"olgapro/internal/fleet"
	"olgapro/internal/server"
)

// stack is one in-process serving deployment on loopback TCP: shards behind
// httptest listeners and, for fleet workloads, a router in front of them.
// All benchmark traffic enters through entry.
type stack struct {
	shards  []*server.Server
	shardTS []*httptest.Server
	router  *fleet.Router
	routeTS *httptest.Server
	entry   string // base URL the workload clients use

	transports []*http.Transport
}

// bootShards starts n shards with the olgaprod defaults, wrapping each
// Handler() in a span recorder when t is non-nil.
func bootShards(t *tracer, n int) (*stack, error) {
	st := &stack{}
	for i := 0; i < n; i++ {
		s, err := server.New(server.Config{})
		if err != nil {
			st.close()
			return nil, fmt.Errorf("boot shard: %w", err)
		}
		st.shards = append(st.shards, s)
		st.shardTS = append(st.shardTS, httptest.NewServer(wrapHandler(t, spanServer, s.Handler())))
	}
	st.entry = st.shardTS[0].URL
	return st, nil
}

// bootFleet starts n shards and a router over them (replication factor 1:
// every instance lives on its ring owner only).
func bootFleet(t *tracer, n int) (*stack, error) {
	st, err := bootShards(t, n)
	if err != nil {
		return nil, err
	}
	hc, base := newHTTPClient(t, spanSubreq, false)
	st.transports = append(st.transports, base)
	rt, err := fleet.NewRouter(fleet.Config{
		Shards: st.shardURLs(), Replicas: 1, HTTPClient: hc, Cooldown: 100 * time.Millisecond,
	})
	if err != nil {
		st.close()
		return nil, fmt.Errorf("boot router: %w", err)
	}
	st.router = rt
	st.routeTS = httptest.NewServer(wrapHandler(t, spanFleet, rt.Handler()))
	st.entry = st.routeTS.URL
	return st, nil
}

func (st *stack) shardURLs() []string {
	out := make([]string, len(st.shardTS))
	for i, ts := range st.shardTS {
		out[i] = ts.URL
	}
	return out
}

// client returns a benchmark client for the stack's entry point. 429s are
// not retried: a refused op counts as failed.
func (st *stack) client(t *tracer) *client.Client {
	return st.clientFor(t, st.entry)
}

func (st *stack) clientFor(t *tracer, url string) *client.Client {
	hc, base := newHTTPClient(t, spanClient, true)
	st.transports = append(st.transports, base)
	return client.New(url, client.WithHTTPClient(hc), client.WithRetries(0))
}

// close stops the router, every shard and every client transport.
func (st *stack) close() {
	if st.routeTS != nil {
		st.routeTS.Close()
	}
	if st.router != nil {
		st.router.Close()
	}
	for i, ts := range st.shardTS {
		ts.Close()
		st.shards[i].Close()
	}
	for _, tr := range st.transports {
		tr.CloseIdleConnections()
	}
}

// udfCounters sums UDF calls and retrainings over every instance of every
// shard (GET /v1/stats), untraced.
func (st *stack) udfCounters(ctx context.Context) (calls, retrains int64, err error) {
	for _, url := range st.shardURLs() {
		s, err := st.clientFor(nil, url).Stats(ctx)
		if err != nil {
			return 0, 0, fmt.Errorf("stats: %w", err)
		}
		for _, u := range s.UDFs {
			calls += int64(u.UDFCalls)
			retrains += int64(u.Retrainings)
		}
	}
	return calls, retrains, nil
}

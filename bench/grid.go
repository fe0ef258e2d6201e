package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"repro"
	"repro/internal/grid"
)

// gridHarness is an in-process grid: a grid.Server behind httptest and
// one grid.Worker{Parallel: 2}, with a WithGrid runner in front. Timing
// wrappers sit at every boundary the benchmark can reach from outside:
// the server's handler, the worker's HTTP transport, its Exec and the
// server's Storage. They record spans only while the recorder is on.
type gridHarness struct {
	srv    *grid.Server
	ts     *httptest.Server
	runner *repro.Runner
	cancel context.CancelFunc
	done   chan struct{}
}

// gridParallel is the worker's execution slots, equal to the client count.
const gridParallel = 2

func startGrid(local *repro.Runner, rec *recorder) *gridHarness {
	srv := grid.NewServer(grid.WithStorage(&timedStore{Storage: grid.NewStore(), rec: rec}))
	ts := httptest.NewServer(&timedHandler{next: srv, rec: rec})
	exec := local.JobExec()
	w := &grid.Worker{
		Server:   ts.URL,
		Name:     "bench",
		Parallel: gridParallel,
		HTTP:     &http.Client{Transport: &timedTransport{next: http.DefaultTransport, rec: rec}},
		Exec: func(ctx context.Context, payload []byte) ([]byte, error) {
			if !rec.on.Load() {
				return exec(ctx, payload)
			}
			t0 := time.Now()
			out, err := exec(ctx, payload)
			rec.add(spanExec, grid.HashBytes(payload), t0, time.Now())
			return out, err
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	h := &gridHarness{srv: srv, ts: ts, runner: repro.NewRunner(repro.WithGrid(ts.URL)),
		cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(h.done)
		w.Run(ctx)
	}()
	return h
}

// close stops the worker and waits for it, then the HTTP server, then
// the grid server.
func (h *gridHarness) close() {
	h.cancel()
	<-h.done
	h.ts.Close()
	h.srv.Close()
}

// timedStore times Storage.Get and Storage.Put; a Get span's name says
// whether it hit.
type timedStore struct {
	grid.Storage
	rec *recorder
}

func (s *timedStore) Get(hash string) ([]byte, bool) {
	if !s.rec.on.Load() {
		return s.Storage.Get(hash)
	}
	t0 := time.Now()
	out, ok := s.Storage.Get(hash)
	name := spanStoreGet + ".miss"
	if ok {
		name = spanStoreGet + ".hit"
	}
	s.rec.add(name, hash, t0, time.Now())
	return out, ok
}

func (s *timedStore) Put(hash string, payload []byte) {
	if !s.rec.on.Load() {
		s.Storage.Put(hash, payload)
		return
	}
	t0 := time.Now()
	s.Storage.Put(hash, payload)
	s.rec.add(spanStorePut, hash, t0, time.Now())
}

// timedHandler times every server request by path.
type timedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.rec.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	var job string
	if r.Body != nil {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		job = bodyJob(body)
	}
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	h.rec.add(spanSrvPrefix+r.URL.Path, job, t0, time.Now())
}

// timedTransport times the worker's requests (lease, heartbeat, complete)
// by path.
type timedTransport struct {
	next http.RoundTripper
	rec  *recorder
}

func (t *timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.next.RoundTrip(r)
	}
	var job string
	if r.GetBody != nil && strings.HasSuffix(r.URL.Path, "/complete") {
		if rc, err := r.GetBody(); err == nil {
			body, _ := io.ReadAll(rc) // a short read only loses the job id
			rc.Close()
			job = bodyJob(body)
		}
	}
	t0 := time.Now()
	resp, err := t.next.RoundTrip(r)
	t.rec.add(spanHTTPPrefix+r.URL.Path, job, t0, time.Now())
	return resp, err
}

// bodyJob extracts the job hash of a one-job batch or a completion
// request; "" for anything else.
func bodyJob(body []byte) string {
	var v struct {
		Hash string `json:"hash"`
		Jobs []struct {
			Hash string `json:"hash"`
		} `json:"jobs"`
	}
	if json.Unmarshal(body, &v) != nil {
		return ""
	}
	if len(v.Jobs) == 1 {
		return v.Jobs[0].Hash
	}
	return v.Hash
}

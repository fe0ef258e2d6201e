package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call across a layer boundary. Job is the canonical
// Job.Hash, so the client call, the server handlers, the worker execution
// and the store accesses of one job join up. Times are nanoseconds since
// the recorder's epoch; Self is the span's self time, filled in by
// snapshot.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// Span names recorded at the benchmark's call boundaries.
const (
	spanClient     = "client"           // one entry-point call
	spanExec       = "grid.exec"        // the worker's Exec
	spanStoreGet   = "grid.store.get"   // Storage.Get, + ".hit" or ".miss"
	spanStorePut   = "grid.store.put"   // Storage.Put
	spanSrvPrefix  = "grid.server"      // + request path
	spanHTTPPrefix = "grid.worker.http" // + request path
)

// recorder keeps spans in memory while on. Off, add costs one atomic load.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a finished span when the recorder is on.
func (r *recorder) add(name, job string, start, end time.Time) {
	if r == nil || !r.on.Load() {
		return
	}
	s := span{
		ID:    r.ids.Add(1),
		Name:  name,
		Job:   job,
		Start: int64(start.Sub(r.epoch)),
		End:   int64(end.Sub(r.epoch)),
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far with parents linked and
// self times filled in.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	linkParents(out)
	self := selfTimes(out)
	for i := range out {
		out[i].Self = int64(self[out[i].ID])
	}
	return out
}

// linkParents makes each job span a child of the client span of the same
// job whose interval contains its start. Client spans and spans with no
// job (lease polls, heartbeats) stay roots.
func linkParents(spans []span) {
	clients := map[string][]int{}
	for i, s := range spans {
		if s.Name == spanClient && s.Job != "" {
			clients[s.Job] = append(clients[s.Job], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.Name == spanClient || s.Job == "" {
			continue
		}
		for _, ci := range clients[s.Job] {
			c := spans[ci]
			if c.Start <= s.Start && s.Start <= c.End {
				s.Parent = c.ID
				break
			}
		}
	}
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover. Overlapping children count once; the parts of
// a child outside its parent do not count.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of the kids' intervals clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	first := true
	for _, v := range ivs {
		switch {
		case first:
			curA, curB, first = v.a, v.b, false
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if !first {
		total += curB - curA
	}
	return time.Duration(total)
}

// durations returns the durations in ms of every span whose name is name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// writeSpans writes spans as NDJSON, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/trace"
)

// clients is the closed loop's client count: each client takes the next
// job of the pass, calls the entry point and waits for it to return.
const clients = 2

// callResult is one entry-point call.
type callResult struct {
	lat time.Duration
	// work is the part of lat that moves with the machine's speed: all of
	// a local call, which computes its job on the caller's goroutine, and
	// none of a grid call, whose latency is set by the grid's lease
	// polling (see yardstick.go).
	work time.Duration
	res  repro.Result
	err  error
}

// passResult is one timed pass over a workload's job list.
type passResult struct {
	k       int
	traced  bool
	jobs    []job
	calls   []callResult
	start   time.Time
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	alloc   uint64  // bytes
	peakRSS int64   // bytes, the largest resident set sampled during the pass
	slow    float64 // the yardstick's slowdown over the pass (see yardstick.go)
}

// throughput is the pass's delivered simulated uops per second of wall
// time. A job delivers when it returns without error.
func (p *passResult) throughput() float64 {
	var uops uint64
	for i, c := range p.calls {
		if c.err == nil {
			uops += p.jobs[i].uops()
		}
	}
	return float64(uops) / p.wall.Seconds()
}

// scaledLatency is a call's latency at the reference machine speed: its
// work is divided by the pass's slowdown, the rest is kept.
func (p *passResult) scaledLatency(c callResult) time.Duration {
	return c.lat - c.work + time.Duration(float64(c.work)/p.slow)
}

// scaledThroughput is the pass's throughput at the reference machine
// speed: its wall time shrinks or grows with its calls' latencies.
func (p *passResult) scaledThroughput() float64 {
	var lat, scaled time.Duration
	for _, c := range p.calls {
		lat += c.lat
		scaled += p.scaledLatency(c)
	}
	return p.throughput() * float64(lat) / float64(scaled)
}

// canonical returns the pass's jobs in canonical order.
func (p *passResult) canonical() []job {
	out := make([]job, len(p.jobs))
	for _, j := range p.jobs {
		out[j.idx] = j
	}
	return out
}

// runPass runs the jobs of pass k through the workload's entry point from
// a closed loop of n clients, recording client spans when traced.
func runPass(ctx context.Context, e *env, k, n int, traced bool, rec *recorder) (*passResult, error) {
	jobs, err := e.passJobs(k)
	if err != nil {
		return nil, err
	}
	p := &passResult{k: k, traced: traced, jobs: jobs, calls: make([]callResult, len(jobs)), slow: 1}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if rec != nil {
		rec.on.Store(traced)
	}
	stopRSS := make(chan struct{})
	peakRSS := samplePeakRSS(stopRSS)
	cpu0, t0 := cpuTime(), time.Now()
	for range parallel.Stream(ctx, len(jobs), n, func(ctx context.Context, i int) int {
		s := time.Now()
		res, err := e.call(ctx, jobs[i])
		end := time.Now()
		var work time.Duration
		if e.grid == nil {
			work = end.Sub(s)
		}
		p.calls[i] = callResult{lat: end.Sub(s), work: work, res: res, err: err}
		rec.add(spanClient, jobs[i].hash, s, end)
		return i
	}) {
	}
	p.start, p.wall, p.cpu = t0, time.Since(t0), cpuTime()-cpu0
	close(stopRSS)
	p.peakRSS = <-peakRSS
	if rec != nil {
		rec.on.Store(false)
	}
	runtime.ReadMemStats(&m1)
	p.mallocs, p.alloc = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return p, ctx.Err()
}

// commitWidth bounds IPC: no machine commits more uops per wide cycle.
var commitWidth = float64(repro.HelperConfig().CommitWidth)

// checkResult reports why a call's output is wrong, or nil: an error, a
// short run, or an IPC outside (0, commit width].
func checkResult(j job, c callResult) error {
	if c.err != nil {
		return c.err
	}
	if got := c.res.Metrics.Committed; got < j.job.N {
		return fmt.Errorf("%s: committed %d of %d uops", j.job.Label(), got, j.job.N)
	}
	if ipc := c.res.Metrics.IPC(); !(ipc > 0 && ipc <= commitWidth) {
		return fmt.Errorf("%s: IPC %v outside (0, %v]", j.job.Label(), ipc, commitWidth)
	}
	return nil
}

// resultSum is the sha256 of one canonical Result JSON.
func resultSum(r repro.Result) ([32]byte, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(data), nil
}

// digest is sha256 over the canonical Result JSON of every job, one per
// line, in the pass's canonical job order, so it does not depend on the
// seed.
func digest(results []repro.Result) (string, error) {
	h := sha256.New()
	for _, r := range results {
		data, err := json.Marshal(r)
		if err != nil {
			return "", err
		}
		h.Write(data)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// reference runs a job on a path that shares no state with the entry
// points: a fresh, unpooled simulator on a fresh stream (or a freshly
// decoded trace), on the caller's goroutine.
func reference(ctx context.Context, j job) (repro.Result, error) {
	cfg, pol := j.job.EffectiveConfig(), j.job.EffectivePolicy()
	if j.trace != "" {
		data, err := os.ReadFile(j.trace)
		if err != nil {
			return repro.Result{}, err
		}
		uops, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			return repro.Result{}, err
		}
		sim, err := core.New(cfg, pol, trace.NewSliceSource(uops))
		if err != nil {
			return repro.Result{}, err
		}
		return sim.RunCtx(ctx, j.job.N)
	}
	src, err := j.job.Workload.Stream()
	if err != nil {
		return repro.Result{}, err
	}
	sim, err := core.New(cfg, pol, src)
	if err != nil {
		return repro.Result{}, err
	}
	return sim.RunWarmCtx(ctx, j.job.N, j.job.Warmup)
}

// referenceStride picks the jobs re-run on the reference path: job i of
// pass k when (i+k) % referenceStride == 0.
const referenceStride = 25

// verdict is the outcome of the output checks of a run.
type verdict struct {
	attempted int
	failed    int
	problems  []string
	digests   []string // per pass
}

func (v *verdict) fail(n int, format string, args ...any) {
	v.failed += n
	if len(v.problems) < 20 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// pinPasses is how many leading passes of a workload pins.json pins.
// Every pass of a local workload runs the same jobs; grid-mixed brings
// new jobs each pass, pinned for two rounds of its rungs.
func pinPasses(name string) int {
	if name == "grid-mixed" {
		return 2 * len(gridRungs)
	}
	return 1
}

// verify checks every call of every pass: each job must return without
// error, commit its N uops and report a plausible IPC; every pass of a
// local workload must return the same results as the first; pass digests
// must match the pinned ones; a sample of jobs must match the reference
// path; and grid-mixed must see exactly one store hit per baseline after
// the first pass.
func verify(ctx context.Context, e *env, passes []*passResult, pinned []string, gridHits uint64) verdict {
	var v verdict
	var first [][32]byte // by canonical index
	for _, p := range passes {
		v.attempted += len(p.jobs)
		bad := make([]bool, len(p.jobs)) // by run order, like p.jobs
		results := make([]repro.Result, len(p.jobs))
		sums := make([][32]byte, len(p.jobs))
		for i, c := range p.calls {
			j := p.jobs[i]
			results[j.idx] = c.res
			if err := checkResult(j, c); err != nil {
				bad[i] = true
				v.fail(0, "pass %d job %d: %v", p.k, i, err)
				continue
			}
			s, err := resultSum(c.res)
			if err != nil {
				bad[i] = true
				v.fail(0, "pass %d job %d: %v", p.k, i, err)
			}
			sums[j.idx] = s
		}
		if pinPasses(e.name) == 1 {
			if first == nil {
				first = sums
			}
			for i, j := range p.jobs {
				if !bad[i] && sums[j.idx] != first[j.idx] {
					bad[i] = true
					v.fail(0, "pass %d job %d (%s): result differs from the first pass", p.k, i, j.job.Label())
				}
			}
		}
		d, err := digest(results)
		if err != nil {
			v.fail(0, "pass %d: %v", p.k, err)
		}
		v.digests = append(v.digests, d)
		want := ""
		switch {
		case pinPasses(e.name) == 1 && len(pinned) > 0:
			want = pinned[0]
		case p.k < len(pinned):
			want = pinned[p.k]
		}
		if want != "" && d != want {
			for i := range bad {
				bad[i] = true
			}
			v.fail(0, "pass %d: digest %s, pinned %s", p.k, d, want)
		}
		for i, j := range p.jobs {
			if (i+p.k)%referenceStride != 0 || bad[i] {
				continue
			}
			ref, err := reference(ctx, j)
			if err != nil {
				bad[i] = true
				v.fail(0, "pass %d job %d: reference: %v", p.k, i, err)
				continue
			}
			if rs, err := resultSum(ref); err != nil || rs != sums[j.idx] {
				bad[i] = true
				v.fail(0, "pass %d job %d (%s): differs from the reference run", p.k, i, j.job.Label())
			}
		}
		for _, b := range bad {
			if b {
				v.failed++
			}
		}
	}
	if e.grid != nil {
		want := uint64(e.size.Suite * (len(passes) - 1))
		if gridHits != want {
			diff := int(gridHits) - int(want)
			if diff < 0 {
				diff = -diff
			}
			v.fail(diff, "grid store hits %d, want %d", gridHits, want)
		}
	}
	return v
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"time"

	"repro"
	"repro/internal/bitwidth"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/predict"
	"repro/internal/steer"
	"repro/internal/trace"
)

// Component-phase budgets. The phase runs after the timed passes, on one
// goroutine, over jobs sampled evenly from the first pass.
const (
	sampleJobs    = 8       // jobs timed step by step
	sampleSources = 2       // distinct inputs replayed through single layers
	codecReps     = 20      // repetitions of each hash and codec call
	layerReps     = 5       // repetitions of each single-layer replay
	stepReps      = 3       // repetitions of each step-by-step job
	stepUops      = 1 << 20 // simulated uops of the step-by-step jobs (one repetition)
	overheadUops  = 2_000   // N of the short jobs that time the entry point's own cost
	overheadReps  = 10
	scalingUops   = 3 << 20 // simulated uops of the 1-vs-2-client comparison
	probeUops     = 1 << 20 // simulated uops of the grid probe of a local workload
	probeMinJobs  = 16
)

// sink keeps the compiler from discarding replayed layer calls.
var sink int

// sampleOf returns up to n jobs spread evenly over jobs.
func sampleOf(jobs []job, n int) []job {
	if len(jobs) <= n {
		return jobs
	}
	out := make([]job, n)
	for i := range out {
		// The +i keeps the sample from aliasing with the job list's
		// policy-major stride.
		out[i] = jobs[(i*len(jobs)/n+i)%len(jobs)]
	}
	return out
}

// prefixOf returns the leading jobs that together simulate at least uops
// uops, and at least minJobs jobs.
func prefixOf(jobs []job, uops uint64, minJobs int) []job {
	var sum uint64
	for i, j := range jobs {
		sum += j.uops()
		if sum >= uops && i+1 >= minJobs {
			return jobs[:i+1]
		}
	}
	return jobs
}

// source is one distinct input of a workload: a profile, or a recorded
// trace file.
type source struct {
	w     repro.Workload
	trace string
}

// open builds the source's uop stream the way the entry points do.
func (s source) open() (trace.Source, error) {
	if s.trace == "" {
		return s.w.Stream()
	}
	f, err := os.Open(s.trace)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	uops, err := trace.Read(f)
	if err != nil {
		return nil, err
	}
	return trace.NewSliceSource(uops), nil
}

func sourcesOf(jobs []job, n int) []source {
	seen := map[string]bool{}
	var out []source
	for _, j := range jobs {
		if !seen[j.group] && len(out) < n {
			seen[j.group] = true
			out = append(out, source{w: j.job.Workload, trace: j.trace})
		}
	}
	return out
}

// components runs the single-threaded component phase of a traced run.
// It samples the first pass in canonical order, so the seed does not
// change which jobs it measures.
func components(ctx context.Context, e *env, first *passResult) ([]metric, error) {
	canon := first.canonical()
	sample := sampleOf(canon, sampleJobs)
	srcs := sourcesOf(canon, sampleSources)
	results := map[string]repro.Result{}
	for i, c := range first.calls {
		results[first.jobs[i].hash] = c.res
	}
	var out []metric
	for _, f := range []func() ([]metric, error){
		func() ([]metric, error) { return synthLayer(srcs, e.size.LayerUops) },
		func() ([]metric, error) { return traceLayer(srcs, e.size.TraceUops) },
		func() ([]metric, error) { return predictCacheLayer(srcs, e.size.LayerUops) },
		func() ([]metric, error) { return jobSteps(ctx, e, first, sample) },
		func() ([]metric, error) { return coreSplit(ctx, srcs, e.size.LayerUops) },
		func() ([]metric, error) { return codecLayer(sample, results) },
	} {
		ms, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// synthLayer times Profile.Stream and Stream.Next.
func synthLayer(srcs []source, n int) ([]metric, error) {
	var builds []float64
	var next time.Duration
	var u isa.Uop
	for _, s := range srcs {
		for r := 0; r < layerReps; r++ {
			t0 := time.Now()
			st, err := s.w.Stream()
			if err != nil {
				return nil, err
			}
			builds = append(builds, us(time.Since(t0)))
			if r > 0 {
				continue
			}
			t0 = time.Now()
			for i := 0; i < n; i++ {
				st.Next(&u)
			}
			next += time.Since(t0)
		}
	}
	sink += int(u.PC)
	return []metric{
		{"synth.build_us", median(builds), "us"},
		{"synth.next_ns", float64(next) / float64(n*len(srcs)), "ns"},
	}, nil
}

// traceLayer times trace.Read on each source's trace file, recording one
// in memory for sources that have none.
func traceLayer(srcs []source, traceUops int) ([]metric, error) {
	var readNS []float64
	var kb []float64
	for _, s := range srcs {
		var data []byte
		if s.trace != "" {
			var err error
			if data, err = os.ReadFile(s.trace); err != nil {
				return nil, err
			}
		} else {
			var buf bytes.Buffer
			st, err := s.w.Stream()
			if err != nil {
				return nil, err
			}
			if err := trace.Write(&buf, st, traceUops); err != nil {
				return nil, err
			}
			data = buf.Bytes()
		}
		for r := 0; r < layerReps; r++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			uops, err := trace.Read(bytes.NewReader(data))
			d := time.Since(t0)
			runtime.ReadMemStats(&m1)
			if err != nil {
				return nil, err
			}
			readNS = append(readNS, float64(d)/float64(len(uops)))
			kb = append(kb, float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		}
	}
	return []metric{
		{"trace.read_ns_per_uop", median(readNS), "ns"},
		{"trace.read_kb_per_job", median(kb), "KB"},
	}, nil
}

// predictCacheLayer replays the sources' uops through the width and
// branch predictors, the data-cache hierarchy and the trace cache, sized
// as in Table 1.
func predictCacheLayer(srcs []source, n int) ([]metric, error) {
	cfg := repro.HelperConfig()
	var width, branch, access, fetch []float64
	for _, s := range srcs {
		src, err := s.open()
		if err != nil {
			return nil, err
		}
		uops := trace.Record(src, n)
		for r := 0; r < layerReps; r++ {
			wp := predict.NewWidthPredictor(cfg.WidthEntries)
			bp := predict.NewBranchPredictor(cfg.BranchPattern, cfg.BranchBTB, cfg.BranchHistory)
			h := cache.NewHierarchy(cfg.L1, cfg.L2, cfg.MemLatency)
			tc := cache.NewTraceCache(cfg.TCUops, cfg.TCLineUops, cfg.TCWays, cfg.TCMissPenalty)
			width = append(width, perOp(uops, func(u *isa.Uop) bool {
				if !u.HasDest() {
					return false
				}
				n, _ := wp.PredictResult(u.PC)
				wp.UpdateResult(u.PC, bitwidth.IsNarrow(u.DstVal))
				if n {
					sink++
				}
				return true
			}))
			branch = append(branch, perOp(uops, func(u *isa.Uop) bool {
				if !u.Class.IsControl() {
					return false
				}
				taken, _, _ := bp.Predict(u.PC)
				if bp.Update(u.PC, u.Taken, u.Target) && taken {
					sink++
				}
				return true
			}))
			access = append(access, perOp(uops, func(u *isa.Uop) bool {
				if !u.Class.IsMem() {
					return false
				}
				sink += h.Access(u.MemAddr)
				return true
			}))
			fetch = append(fetch, perOp(uops, func(u *isa.Uop) bool {
				sink += tc.FetchUop(u.PC)
				return true
			}))
		}
	}
	return []metric{
		{"predict.width_ns", median(width), "ns"},
		{"predict.branch_ns", median(branch), "ns"},
		{"cache.access_ns", median(access), "ns"},
		{"cache.tc_fetch_ns", median(fetch), "ns"},
	}, nil
}

// perOp runs op over uops and returns ns per uop op accepted.
func perOp(uops []isa.Uop, op func(*isa.Uop) bool) float64 {
	n := 0
	t0 := time.Now()
	for i := range uops {
		if op(&uops[i]) {
			n++
		}
	}
	return float64(time.Since(t0)) / float64(max(n, 1))
}

// stepTimes is one step-by-step execution of a job.
type stepTimes struct {
	build, acquire, run time.Duration // acquire includes the release
	mallocs             uint64        // around acquire, run and release
}

// runSteps executes a job the way the local entry point does, one timed
// step at a time: build the input, acquire a pooled sim, run, release.
func runSteps(ctx context.Context, j job) (stepTimes, error) {
	var st stepTimes
	t0 := time.Now()
	src, err := source{w: j.job.Workload, trace: j.trace}.open()
	if err != nil {
		return st, err
	}
	built := time.Now()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	sim, err := core.Acquire(j.job.EffectiveConfig(), j.job.EffectivePolicy(), src)
	if err != nil {
		return st, err
	}
	t2 := time.Now()
	if j.trace != "" {
		_, err = sim.RunCtx(ctx, j.job.N)
	} else {
		_, err = sim.RunWarmCtx(ctx, j.job.N, j.job.Warmup)
	}
	t3 := time.Now()
	core.Release(sim)
	t4 := time.Now()
	runtime.ReadMemStats(&m1)
	st = stepTimes{build: built.Sub(t0), acquire: t2.Sub(t1) + t4.Sub(t3), run: t3.Sub(t2), mallocs: m1.Mallocs - m0.Mallocs}
	return st, err
}

// jobSteps times sampled jobs step by step on one goroutine, and short
// copies of them alternately step by step and through the local entry
// point, taking each side's fastest repetition. It also measures the
// 1-vs-2-client scaling of a prefix of the pass on the local entry point.
func jobSteps(ctx context.Context, e *env, first *passResult, sample []job) ([]metric, error) {
	var acquire, overhead []float64
	var runSum, latSum time.Duration
	var mallocs uint64
	var runs int
	lat := map[string]time.Duration{}
	for i, c := range first.calls {
		lat[first.jobs[i].hash] = c.lat
	}
	local := &env{name: e.name, size: e.size, local: e.local}
	for _, j := range prefixOf(sample, stepUops, 2) {
		minRun := time.Duration(math.MaxInt64)
		for r := 0; r < stepReps; r++ {
			st, err := runSteps(ctx, j)
			if err != nil {
				return nil, err
			}
			acquire = append(acquire, us(st.acquire))
			mallocs += st.mallocs
			runs++
			minRun = min(minRun, st.run)
		}
		runSum += minRun
		latSum += lat[j.hash]
	}
	// The entry point's own cost is microseconds, far below the run-to-run
	// noise of a full job, so it is measured on short copies of the jobs.
	for _, j := range sample {
		j.job.N, j.job.Warmup = overheadUops, overheadUops/5
		minSteps, minCall := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for r := 0; r < overheadReps; r++ {
			st, err := runSteps(ctx, j)
			if err != nil {
				return nil, err
			}
			minSteps = min(minSteps, st.build+st.acquire+st.run)
			t0 := time.Now()
			if _, err := local.call(ctx, j); err != nil {
				return nil, err
			}
			minCall = min(minCall, time.Since(t0))
		}
		overhead = append(overhead, us(minCall-minSteps))
	}

	local.passJobs = fixedPasses(prefixOf(first.canonical(), scalingUops, 2*clients))
	one, err := runPass(ctx, local, 0, 1, false, nil)
	if err != nil {
		return nil, err
	}
	two, err := runPass(ctx, local, 0, clients, false, nil)
	if err != nil {
		return nil, err
	}
	return []metric{
		{"core.acquire_us", median(acquire), "us"},
		{"core.allocs_per_run", float64(mallocs) / float64(runs), "count"},
		{"core.run_share", float64(runSum) / float64(latSum), "ratio"},
		{"repro.run_overhead_us", median(overhead), "us"},
		{"parallel.scaling_eff", float64(one.wall) / (float64(two.wall) * clients), "ratio"},
	}, nil
}

// coreSplit runs each source for n uops under the static FCR
// rung and under each dynamic policy, on prebuilt inputs, taking the
// fastest of stepReps runs of each.
func coreSplit(ctx context.Context, srcs []source, n int) ([]metric, error) {
	dyn := dynamicPolicies()[1:]
	cfg := repro.HelperConfig()
	var static, dynamic time.Duration
	var ticks uint64
	for _, s := range srcs {
		for _, pol := range append([]repro.Policy{steer.FCR()}, dyn...) {
			d := time.Duration(math.MaxInt64)
			var res repro.Result
			for r := 0; r < stepReps; r++ {
				src, err := s.open()
				if err != nil {
					return nil, err
				}
				sim, err := core.New(cfg, pol, src)
				if err != nil {
					return nil, err
				}
				t0 := time.Now()
				res, err = sim.RunCtx(ctx, uint64(n))
				d = min(d, time.Since(t0))
				if err != nil {
					return nil, err
				}
			}
			ticks += res.Metrics.Ticks
			if pol.Interval() == 0 {
				static += d
			} else {
				dynamic += d
			}
		}
	}
	uops := float64(n * len(srcs))
	perDyn := float64(dynamic) / float64(len(dyn))
	return []metric{
		{"core.run_ns_per_uop_static", float64(static) / uops, "ns"},
		{"core.run_ns_per_uop_dynamic", perDyn / uops, "ns"},
		{"core.ns_per_tick", float64(static+dynamic) / float64(ticks), "ns"},
		{"steer.dynamic_overhead_pct", 100 * (perDyn/float64(static) - 1), "%"},
	}, nil
}

// codecLayer times Job.Hash and the Job and Result JSON round trips of
// the sampled jobs and their results.
func codecLayer(sample []job, results map[string]repro.Result) ([]metric, error) {
	var hash, jobRT, resRT []float64
	for _, j := range sample {
		res := results[j.hash]
		for r := 0; r < codecReps; r++ {
			t0 := time.Now()
			if _, err := j.job.Hash(); err != nil {
				return nil, err
			}
			t1 := time.Now()
			data, err := json.Marshal(j.job)
			if err != nil {
				return nil, err
			}
			var back repro.Job
			if err := json.Unmarshal(data, &back); err != nil {
				return nil, err
			}
			t2 := time.Now()
			data, err = json.Marshal(res)
			if err != nil {
				return nil, err
			}
			var resBack repro.Result
			if err := json.Unmarshal(data, &resBack); err != nil {
				return nil, err
			}
			t3 := time.Now()
			hash = append(hash, us(t1.Sub(t0)))
			jobRT = append(jobRT, us(t2.Sub(t1)))
			resRT = append(resRT, us(t3.Sub(t2)))
		}
	}
	return []metric{
		{"repro.hash_us", median(hash), "us"},
		{"repro.job_codec_us", median(jobRT), "us"},
		{"repro.result_codec_us", median(resRT), "us"},
	}, nil
}

// gridProbe runs a prefix of a local workload's first pass through a
// fresh in-process grid twice, so the first round misses the store and
// the second hits, and returns the grid metrics. Its spans go to rec.
func gridProbe(ctx context.Context, e *env, first *passResult, rec *recorder) ([]metric, error) {
	h := startGrid(e.local, rec)
	defer h.close()
	prefix := prefixOf(first.canonical(), probeUops, probeMinJobs)
	jobs := make([]job, len(prefix))
	for i, j := range prefix {
		if j.trace != "" {
			// The grid runs Runner.Run jobs: simulate the profile the
			// trace was recorded from instead.
			var err error
			if j, err = newJob(j.job.Workload, j.job.Policy, j.job.N, j.job.N/5); err != nil {
				return nil, err
			}
		}
		jobs[i] = j
	}
	probe := &env{name: e.name, size: e.size, local: e.local, grid: h, passJobs: fixedPasses(jobs)}
	var gd gridDelta
	var wall time.Duration
	for round := 0; round < 2; round++ {
		before := h.srv.Metrics()
		p, err := runPass(ctx, probe, round, clients, true, rec)
		if err != nil {
			return nil, err
		}
		for i, c := range p.calls {
			if err := checkResult(jobs[i], c); err != nil {
				return nil, err
			}
		}
		gd.add(before, h.srv.Metrics())
		wall += p.wall
	}
	return gridLayer(rec.snapshot(), gd, wall), nil
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (§3): trace-level characterizations (Figures 1, 11, 13),
// the steering-policy ladder over SPEC Int 2000 (Figures 5-9, 12, the CP
// and IR studies), the configuration and workload inventories (Tables 1,
// 2), and the 412-application wrap-up (Figure 14).
//
// Simulations for different workloads are independent, so sweeps fan out
// over a worker pool.
package experiments

import (
	"context"
	"fmt"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/steer"
	"repro/internal/synth"
	"repro/internal/workload"
)

// Options scales the experiment suite.
type Options struct {
	// SpecUops is the committed-uop budget per SPEC trace (the paper
	// simulated 100M-instruction traces; the default here keeps the full
	// suite in seconds while preserving the shapes).
	SpecUops uint64
	// SuiteUops is the budget per trace of the 412-application suite.
	SuiteUops uint64
	// Warmup is the per-run warm-up budget in committed uops (predictors
	// and caches fill, counters reset) — the synthetic equivalent of the
	// paper's skipping of each trace's initialization slice (§3.1).
	Warmup uint64
	// Workers bounds sweep parallelism; 0 means GOMAXPROCS.
	Workers int
}

// DefaultOptions returns the standard experiment scale.
func DefaultOptions() Options {
	return Options{SpecUops: 150_000, SuiteUops: 30_000, Warmup: 30_000}
}

// Quick returns a reduced scale for tests.
func Quick() Options {
	return Options{SpecUops: 20_000, SuiteUops: 5_000, Warmup: 5_000}
}

// runOne simulates one workload under one policy with warmup. Streams
// and Sims come from their pools: the full-suite sweeps (Figure 14 runs
// 824 simulations) recycle one of each per worker instead of building a
// synthetic program and a megabyte of simulator state per run.
func runOne(ctx context.Context, p workload.Profile, pol steer.Policy, n, warm uint64) (core.Result, error) {
	cfg := config.PentiumLikeBaseline()
	if pol.NeedsHelper() {
		cfg = config.WithHelper()
	}
	src, err := synth.Acquire(p.Params)
	if err != nil {
		return core.Result{}, err
	}
	defer synth.Release(src)
	sim, err := core.Acquire(cfg, pol, src)
	if err != nil {
		return core.Result{}, err
	}
	defer core.Release(sim)
	return sim.RunWarmCtx(ctx, n, warm)
}

// SpecSweep holds one full policy-ladder sweep over the 12 SPEC traces;
// the figure builders read from it so the expensive runs happen once.
type SpecSweep struct {
	Opts     Options
	Apps     []string
	Baseline map[string]core.Result
	Policies []steer.Features
	ByPolicy map[string]map[string]core.Result // policy name → app → result
	// NoConfidence holds the 8_8_8 runs without the confidence estimator
	// (the §3.2 fatal-rate comparison).
	NoConfidence map[string]core.Result
}

// RunSpecSweep runs baseline + the full ladder (+ the no-confidence
// variant) over the 12 SPEC profiles in parallel. It panics on simulator
// failure; use RunSpecSweepCtx for error returns and cancellation.
func RunSpecSweep(o Options) *SpecSweep {
	s, err := RunSpecSweepCtx(context.Background(), o)
	if err != nil {
		panic(err)
	}
	return s
}

// RunSpecSweepCtx is RunSpecSweep with cancellation: the fan-out stops
// dispatching and in-flight simulations wind down as soon as ctx is done.
func RunSpecSweepCtx(ctx context.Context, o Options) (*SpecSweep, error) {
	profiles := workload.SpecInt2000()
	policies := steer.Ladder()
	s := &SpecSweep{
		Opts:         o,
		Policies:     policies,
		Baseline:     make(map[string]core.Result, len(profiles)),
		ByPolicy:     make(map[string]map[string]core.Result, len(policies)),
		NoConfidence: make(map[string]core.Result, len(profiles)),
	}
	for _, p := range profiles {
		s.Apps = append(s.Apps, p.Name)
	}
	for _, f := range policies {
		s.ByPolicy[f.Name()] = make(map[string]core.Result, len(profiles))
	}

	type job struct {
		app   string
		prof  workload.Profile
		feats steer.Features
		kind  int // 0 baseline, 1 policy, 2 no-confidence
	}
	var jobs []job
	for _, p := range profiles {
		jobs = append(jobs, job{app: p.Name, prof: p, feats: steer.Baseline(), kind: 0})
		for _, f := range policies {
			jobs = append(jobs, job{app: p.Name, prof: p, feats: f, kind: 1})
		}
		jobs = append(jobs, job{app: p.Name, prof: p, feats: steer.F888NoConfidence(), kind: 2})
	}
	// parallel.Map cancels the rest of the sweep on the first real failure
	// and reports it; a plain context cancellation surfaces unattributed.
	results, err := parallel.Map(ctx, len(jobs), o.Workers, func(ctx context.Context, i int) (core.Result, error) {
		r, runErr := runOne(ctx, jobs[i].prof, jobs[i].feats, o.SpecUops, o.Warmup)
		if runErr != nil {
			return r, fmt.Errorf("experiments: %s/%s: %w", jobs[i].app, jobs[i].feats.Name(), runErr)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for i, j := range jobs {
		switch j.kind {
		case 0:
			s.Baseline[j.app] = results[i]
		case 1:
			s.ByPolicy[j.feats.Name()][j.app] = results[i]
		case 2:
			s.NoConfidence[j.app] = results[i]
		}
	}
	return s, nil
}

// speedup returns the percent speedup of app under policy vs baseline.
func (s *SpecSweep) speedup(policy, app string) float64 {
	r := s.ByPolicy[policy][app].Metrics
	b := s.Baseline[app].Metrics
	return 100 * metrics.Speedup(&r, &b)
}

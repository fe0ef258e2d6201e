package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro"
)

// sizes are the job budgets of the workloads. fullSize is the benchmark;
// tests shrink it. The fields are exported so a set-up child can receive
// them as JSON.
type sizes struct {
	Apps                int    // SPEC Int apps used (of 12)
	Suite               int    // Figure 14 traces used (of 412)
	SpecN, SpecWarmup   uint64 // spec-ladder job budget
	SuiteN, SuiteWarmup uint64 // suite412 and grid-mixed job budget
	TraceUops           int    // uops per recorded replay trace
	ReplayN             uint64 // committed uops per replay job (the trace loops)
	LayerUops           int    // uops per single-layer replay and per core split run
}

var fullSize = sizes{
	Apps: 12, Suite: 412,
	SpecN: 200_000, SpecWarmup: 40_000,
	SuiteN: 4_000, SuiteWarmup: 1_000,
	TraceUops: 100_000, ReplayN: 200_000,
	LayerUops: 50_000,
}

// workloadInfo names a workload and says why it is in the benchmark.
type workloadInfo struct {
	name, why string
}

// workloadList is the benchmark's workloads, in BENCHMARK.json order.
var workloadList = []workloadInfo{
	{"spec-ladder", "long warm SPEC jobs under the 9 static policies, so the core hot loop, width predictor and caches do nearly all the work"},
	{"suite412", "short Figure 14 jobs (baseline and IR), where per-job setup (stream build, sim acquire, result) is a large share of each job"},
	{"replay-dynamic", "replays recorded trace files under the dynamic policies from cold caches: trace decode and the per-uop Decide and Observe path"},
	{"grid-mixed", "the suite through an in-process grid: cached baselines are store hits, new rungs go through lease, exec, complete and Put"},
}

// gridRungs are the steered policies grid-mixed cycles through, one per
// pass.
var gridRungs = []string{"8_8_8+BR+LR+CR", "8_8_8+BR+LR+CR+CP", "8_8_8+BR+LR+CR+CP+IR", "8_8_8+BR+LR+CR+CP+IRnd"}

// job is one call of a workload's entry point.
type job struct {
	job   repro.Job // the job; for replays, its policy, config and N
	trace string    // non-empty: replay this trace file with Runner.RunTraceFile
	hash  string    // canonical Job.Hash, the span and store key
	group string    // identity of the simulated input, pairing a job with its baseline
	base  bool      // the job runs the baseline policy
	idx   int       // position in the pass's canonical (unshuffled) order
}

// uops is the number of uops the job simulates.
func (j job) uops() uint64 { return j.job.N + j.job.Warmup }

// env is a workload set up for one seed: its job lists and entry point.
type env struct {
	name  string
	size  sizes
	local *repro.Runner
	grid  *gridHarness // grid-mixed only
	dir   string       // replay trace directory, removed by close
	// passJobs returns the job list of pass k in the order it runs.
	passJobs func(k int) ([]job, error)
}

// call runs one job through the workload's entry point.
func (e *env) call(ctx context.Context, j job) (repro.Result, error) {
	switch {
	case j.trace != "":
		return e.local.RunTraceFile(ctx, j.job.EffectiveConfig(), j.job.EffectivePolicy(), j.trace, j.job.N)
	case e.grid != nil:
		return e.grid.runner.Run(ctx, j.job)
	default:
		return e.local.Run(ctx, j.job)
	}
}

// close stops the grid and removes the recorded traces.
func (e *env) close() {
	if e.grid != nil {
		e.grid.close()
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// perturb returns the profiles with every Params.Seed moved by off, so
// offset 0 is the registry profiles exactly.
func perturb(ws []repro.Workload, off int) []repro.Workload {
	out := make([]repro.Workload, len(ws))
	for i, w := range ws {
		w.Params.Seed += int64(off)
		out[i] = w
	}
	return out
}

// specPolicies are spec-ladder's static policies: the baseline, the seven
// ladder rungs and 8_8_8 without the confidence estimator.
func specPolicies() ([]repro.Policy, error) {
	noconf, err := repro.PolicyByName("8_8_8-noconfidence")
	if err != nil {
		return nil, err
	}
	pols := append([]repro.Policy{repro.PolicyBaseline()}, repro.PolicyLadder()...)
	return append(pols, noconf), nil
}

// dynamicPolicies are replay-dynamic's policies: the baseline and the four
// dynamic selectors.
func dynamicPolicies() []repro.Policy {
	return []repro.Policy{repro.PolicyBaseline(), repro.PolicyDynamic(), repro.PolicyUCB(),
		repro.PolicyUCBED2(), repro.PolicyAdaptive()}
}

// newJob builds a Runner.Run job with its hash.
func newJob(w repro.Workload, pol repro.Policy, n, warmup uint64) (job, error) {
	j := repro.Job{Policy: pol, Workload: w, N: n, Warmup: warmup}
	h, err := j.Hash()
	if err != nil {
		return job{}, err
	}
	return job{job: j, hash: h, group: fmt.Sprintf("%s#%d", w.Name, w.Params.Seed),
		base: !pol.NeedsHelper()}, nil
}

// crossJobs builds one job per (workload, policy), workload-major.
func crossJobs(ws []repro.Workload, pols []repro.Policy, n, warmup uint64) ([]job, error) {
	out := make([]job, 0, len(ws)*len(pols))
	for _, w := range ws {
		for _, p := range pols {
			j, err := newJob(w, p, n, warmup)
			if err != nil {
				return nil, err
			}
			out = append(out, j)
		}
	}
	return out, nil
}

// fixedPasses makes every pass run the same job list.
func fixedPasses(jobs []job) func(int) ([]job, error) {
	return func(int) ([]job, error) { return jobs, nil }
}

// seeded numbers each job of a pass by its canonical position and deals
// the jobs in the order the seed picks, the same order every pass.
func seeded(canon func(int) ([]job, error), seed int) func(int) ([]job, error) {
	return func(k int) ([]job, error) {
		jobs, err := canon(k)
		if err != nil {
			return nil, err
		}
		out := make([]job, len(jobs))
		for i, p := range rand.New(rand.NewSource(int64(seed))).Perm(len(jobs)) {
			out[i] = jobs[p]
			out[i].idx = p
		}
		return out, nil
	}
}

// setupEnv builds workload name for seed: profiles, job lists, recorded
// traces (replay-dynamic) and the in-process grid (grid-mixed). workDir
// holds the recorded traces; rec receives the grid's spans.
//
// The seed sets the order in which the clients take the jobs. It does not
// perturb the simulated programs: one SPEC profile's IPC ranges from 0.2
// to 2.8 over generator seeds, which made the simulated metrics of a
// 12-app workload spread by 19% (sim_ipc) and 59% (helper_speedup_pct)
// over ten seeds, wider than any bound could hold.
func setupEnv(name string, seed int, sz sizes, workDir string, rec *recorder) (*env, error) {
	e := &env{name: name, size: sz, local: repro.NewRunner()}
	var err error
	switch name {
	case "spec-ladder":
		var pols []repro.Policy
		if pols, err = specPolicies(); err != nil {
			return nil, err
		}
		var jobs []job
		if jobs, err = crossJobs(repro.SpecInt2000()[:sz.Apps], pols, sz.SpecN, sz.SpecWarmup); err != nil {
			return nil, err
		}
		e.passJobs = fixedPasses(jobs)
	case "suite412":
		var jobs []job
		if jobs, err = crossJobs(repro.Suite412()[:sz.Suite], []repro.Policy{repro.PolicyBaseline(), repro.PolicyFull()}, sz.SuiteN, sz.SuiteWarmup); err != nil {
			return nil, err
		}
		e.passJobs = fixedPasses(jobs)
	case "replay-dynamic":
		err = e.setupReplay(workDir)
	case "grid-mixed":
		err = e.setupGrid(rec)
	default:
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if err != nil {
		e.close()
		return nil, err
	}
	e.passJobs = seeded(e.passJobs, seed)
	return e, nil
}

// setupReplay records one trace file per SPEC app and builds the replay
// jobs. Replays start cold: RunTraceFile applies no warmup.
func (e *env) setupReplay(workDir string) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "traces-")
	if err != nil {
		return err
	}
	e.dir = dir
	var jobs []job
	for _, w := range repro.SpecInt2000()[:e.size.Apps] {
		path := filepath.Join(dir, w.Name+".trace")
		if err := repro.WriteTraceFile(path, w, e.size.TraceUops); err != nil {
			return fmt.Errorf("recording %s: %w", w.Name, err)
		}
		for _, p := range dynamicPolicies() {
			j, err := newJob(w, p, e.size.ReplayN, 0)
			if err != nil {
				return err
			}
			j.trace = path
			jobs = append(jobs, j)
		}
	}
	e.passJobs = fixedPasses(jobs)
	return nil
}

// setupGrid starts the in-process grid. Pass k runs the suite baselines
// (the same every pass, so store hits after pass 0) and the suite under
// rung k%4 with every profile seed moved by k/4 (new every pass, so store
// misses).
func (e *env) setupGrid(rec *recorder) error {
	rungs := make([]repro.Policy, len(gridRungs))
	for i, n := range gridRungs {
		p, err := repro.PolicyByName(n)
		if err != nil {
			return err
		}
		rungs[i] = p
	}
	suite := repro.Suite412()[:e.size.Suite]
	base, err := crossJobs(suite, []repro.Policy{repro.PolicyBaseline()}, e.size.SuiteN, e.size.SuiteWarmup)
	if err != nil {
		return err
	}
	e.passJobs = func(k int) ([]job, error) {
		steered, err := crossJobs(perturb(suite, k/len(rungs)), rungs[k%len(rungs):k%len(rungs)+1], e.size.SuiteN, e.size.SuiteWarmup)
		if err != nil {
			return nil, err
		}
		out := make([]job, 0, 2*len(base))
		for i := range base {
			out = append(out, base[i], steered[i])
		}
		return out, nil
	}
	e.grid = startGrid(e.local, rec)
	return nil
}

// setupChildEnv names the environment variable that makes the benchmark
// binary a set-up child: it sets up the workload the variable describes
// (a setupRequest as JSON), prints "ready" once the first pass's job list
// is built, cleans up and exits.
const setupChildEnv = "HELPERBENCH_SETUP_CHILD"

// setupSamples is how many set-up children a run times; setup_s is the
// median of their times.
const setupSamples = 9

// setupRequest is the workload a set-up child sets up.
type setupRequest struct {
	Workload string
	Seed     int
	Size     sizes
	WorkDir  string
}

// timeSetup starts setupSamples set-up children one after another and
// returns the median time from starting one to its "ready" line. Each is
// a cold start: process start, runtime and package initialisation, the
// workload's set-up and its first job list.
func timeSetup(ctx context.Context, req setupRequest) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	data, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	times := make([]float64, 0, setupSamples)
	for i := 0; i < setupSamples; i++ {
		s, err := setupChild(ctx, exe, string(data))
		if err != nil {
			return 0, fmt.Errorf("set-up child: %w", err)
		}
		times = append(times, s)
	}
	return median(times), nil
}

// setupChild starts one set-up child, times it to its "ready" line and
// waits for it to exit.
func setupChild(ctx context.Context, exe, req string) (float64, error) {
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), setupChildEnv+"="+req)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, _ := bufio.NewReader(out).ReadString('\n')
	elapsed := time.Since(t0).Seconds()
	if err := cmd.Wait(); err != nil {
		return 0, err
	}
	if line != "ready\n" {
		return 0, fmt.Errorf("printed %q, want ready", line)
	}
	return elapsed, nil
}

// runSetupChild is the set-up child's main: it returns the exit code.
func runSetupChild(req string, stdout io.Writer) int {
	var r setupRequest
	if err := json.Unmarshal([]byte(req), &r); err != nil {
		fmt.Fprintln(os.Stderr, "bench: set-up child:", err)
		return 2
	}
	e, err := setupEnv(r.Workload, r.Seed, r.Size, r.WorkDir, newRecorder())
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: set-up child:", err)
		return 2
	}
	defer e.close()
	// The first pass's job list is part of getting the first job ready.
	if _, err := e.passJobs(0); err != nil {
		fmt.Fprintln(os.Stderr, "bench: set-up child:", err)
		return 2
	}
	fmt.Fprintln(stdout, "ready")
	return 0
}

package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro"
)

// toySize shrinks every workload so a full run takes well under a second.
var toySize = sizes{
	Apps: 2, Suite: 6,
	SpecN: 2_000, SpecWarmup: 400,
	SuiteN: 1_000, SuiteWarmup: 200,
	TraceUops: 2_000, ReplayN: 3_000,
	LayerUops: 2_000,
}

// TestMain lets the test binary serve as a set-up child, as the benchmark
// binary does, so untraced toy runs time their set-up the same way.
func TestMain(m *testing.M) {
	if req := os.Getenv(setupChildEnv); req != "" {
		os.Exit(runSetupChild(req, os.Stdout))
	}
	os.Exit(m.Run())
}

// benchmarkJSON is the part of BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloadList))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadList[i].name || w.Why != workloadList[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadList[i].name)
		}
	}
}

// TestToyRunsEmitBenchmarkMetrics runs every workload at toy size, untraced
// and traced, and checks that each run is correct and prints exactly the
// metric names and units BENCHMARK.json lists.
func TestToyRunsEmitBenchmarkMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range b.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, w := range workloadList {
		for _, traced := range []bool{false, true} {
			rep, err := runWorkload(context.Background(), options{
				workload: w.name, seed: 1, trace: traced, size: toySize, workDir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rep.verdict.failed != 0 || rep.verdict.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d jobs failed: %v", w.name, traced,
					rep.verdict.failed, rep.verdict.attempted, rep.verdict.problems)
			}
			got := map[string]string{}
			for _, m := range rep.metrics {
				got[m.name] = m.unit
			}
			if !reflect.DeepEqual(got, want[traced]) {
				t.Errorf("%s traced=%v: metrics\n got %v\nwant %v", w.name, traced, got, want[traced])
			}
			if traced && len(rep.spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", w.name)
			}
		}
	}
}

func TestPercentileTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, beyond := percentile(xs, 90); v != 90 || beyond != 10 {
		t.Errorf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	// p95 has 5 beyond, so p90 is the highest with ten.
	if p, v, beyond, ok := highestTail(xs, 10); !ok || p != 90 || v != 90 || beyond != 10 {
		t.Errorf("highestTail(1..100) = p%v %v (%d beyond, %v), want p90 90 (10 beyond)", p, v, beyond, ok)
	}
	xs = append(xs, make([]float64, 900)...)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if p, _, beyond, ok := highestTail(xs, 10); !ok || p != 99 || beyond != 10 {
		t.Errorf("highestTail(1..1000) = p%v (%d beyond), want p99 (10 beyond)", p, beyond)
	}
	if _, _, _, ok := highestTail(xs[:15], 10); ok {
		t.Error("15 samples: want no percentile with ten beyond it")
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanClient, Job: "a", Start: 0, End: 100},
		{ID: 2, Name: spanExec, Job: "a", Start: 10, End: 40},
		{ID: 3, Name: spanStoreGet + ".miss", Job: "a", Start: 30, End: 50}, // overlaps 2
		{ID: 4, Name: spanStorePut, Job: "a", Start: 90, End: 120},          // ends after 1
		{ID: 5, Name: spanClient, Job: "b", Start: 200, End: 260},
		{ID: 6, Name: spanHTTPPrefix + "/v1/lease", Start: 20, End: 25}, // no job: a root
		{ID: 7, Name: spanExec, Job: "a", Start: 300, End: 310},         // outside every client span of a
	}
	linkParents(spans)
	wantParent := map[int64]int64{1: 0, 2: 1, 3: 1, 4: 1, 5: 0, 6: 0, 7: 0}
	for _, s := range spans {
		if s.Parent != wantParent[s.ID] {
			t.Errorf("span %d: parent %d, want %d", s.ID, s.Parent, wantParent[s.ID])
		}
	}
	// Client a: 100 long, children cover [10,50) and [90,100) = 50.
	want := map[int64]time.Duration{1: 50, 2: 30, 3: 20, 4: 30, 5: 60, 6: 5, 7: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self time %d, want %d", id, got[id], w)
		}
	}
}

// TestGridMatchesLocal checks that grid-mixed results are byte-identical
// to local runs of the same jobs, hits and misses alike.
func TestGridMatchesLocal(t *testing.T) {
	ctx := context.Background()
	e, err := setupEnv("grid-mixed", 0, toySize, t.TempDir(), newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	for k := 0; k < 2; k++ {
		jobs, err := e.passJobs(k)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			remote, err := e.call(ctx, j)
			if err != nil {
				t.Fatal(err)
			}
			local, err := e.local.Run(ctx, j.job)
			if err != nil {
				t.Fatal(err)
			}
			rj, _ := json.Marshal(remote)
			lj, _ := json.Marshal(local)
			if string(rj) != string(lj) {
				t.Errorf("pass %d %s: grid and local results differ", k, j.job.Label())
			}
		}
	}
	if hits := e.grid.srv.Metrics().CacheHits; hits != uint64(toySize.Suite) {
		t.Errorf("store hits %d, want %d (the second pass's baselines)", hits, toySize.Suite)
	}
}

func TestSeedOffsetZeroIsRegistry(t *testing.T) {
	for _, ws := range [][]repro.Workload{repro.SpecInt2000(), repro.Suite412()} {
		if got := perturb(ws, 0); !reflect.DeepEqual(got, ws) {
			t.Error("offset 0 changed the registry profiles")
		}
		moved := perturb(ws, 3)
		for i := range ws {
			w := ws[i]
			w.Params.Seed += 3
			if !reflect.DeepEqual(moved[i], w) {
				t.Errorf("offset 3 changed %s beyond its seed", ws[i].Name)
			}
		}
	}
}

// TestSeedOrdersJobs checks that the seed only orders a pass: the same
// seed deals the same order, another seed the same jobs in another order.
func TestSeedOrdersJobs(t *testing.T) {
	order := func(seed int) []string {
		e, err := setupEnv("spec-ladder", seed, toySize, t.TempDir(), nil)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		jobs, err := e.passJobs(0)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		seen := map[int]bool{}
		for _, j := range jobs {
			if j.idx >= 0 && j.idx < len(jobs) {
				seen[j.idx] = true
			}
			out = append(out, j.hash)
		}
		if len(seen) != len(jobs) {
			t.Fatalf("seed %d: canonical indexes are not a permutation", seed)
		}
		return out
	}
	a, b, c := order(1), order(1), order(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 1 dealt two different orders")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 1 and 2 dealt the same order")
	}
	sortedA, sortedC := append([]string(nil), a...), append([]string(nil), c...)
	sort.Strings(sortedA)
	sort.Strings(sortedC)
	if !reflect.DeepEqual(sortedA, sortedC) {
		t.Error("seeds 1 and 2 dealt different jobs")
	}
}

func TestYardstickSlowdown(t *testing.T) {
	t0 := time.Now()
	y := &yardstick{}
	for i, took := range []time.Duration{1, 2, 3, 4, 5, 6} {
		y.at = append(y.at, t0.Add(time.Duration(i)*time.Second))
		y.took = append(y.took, took*yardstickRef)
	}
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	cases := []struct {
		from, to float64
		want     float64
	}{
		{0, 5, 3.5},   // all six runs
		{1, 3, 3},     // runs at 1, 2 and 3 s
		{2.9, 3.1, 4}, // one run inside; the nearest others are at 2 and 4 s
		{-9, -8, 2},   // before every run: the first three
		{20, 30, 5},   // after every run: the last three
		{1.5, 1.6, 3}, // none inside: the runs at 2, 1 and 3 s (3 s is nearer than 0 s)
	}
	for _, c := range cases {
		if got := y.slowdown(at(c.from), at(c.to)); got != c.want {
			t.Errorf("slowdown(%v s, %v s) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
	if got := (&yardstick{}).slowdown(t0, t0); got != 1 {
		t.Errorf("slowdown with no runs = %v, want 1", got)
	}
}

// TestScaledTimes checks that only a call's work is scaled, and that the
// pass's throughput follows its calls.
func TestScaledTimes(t *testing.T) {
	p := &passResult{
		jobs:  []job{{job: repro.Job{N: 600}}, {job: repro.Job{N: 400}}},
		calls: []callResult{{lat: 10, work: 10}, {lat: 10, work: 4}},
		wall:  time.Second,
		slow:  2,
	}
	if got := p.scaledLatency(p.calls[0]); got != 5 {
		t.Errorf("scaled latency %v, want 5", got)
	}
	if got := p.scaledLatency(p.calls[1]); got != 8 {
		t.Errorf("scaled latency %v, want 8 (6 kept + 4/2 scaled)", got)
	}
	if got := p.scaledThroughput(); got != 1000*20.0/13 {
		t.Errorf("scaled throughput %v, want %v", got, 1000*20.0/13)
	}
}

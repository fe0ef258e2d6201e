package repro

import (
	"context"
	"runtime"
	"testing"
)

// warmJobAllocBudget bounds the heap allocations of one warm job: what
// is left once the workload stream, the simulator and the trace buffers
// all come from their pools (the Result, the policy state, the file and
// context of a trace replay).
const warmJobAllocBudget = 16

// warmAllocs returns the fewest allocations per call of run over three
// AllocsPerRun measurements, after one warming call. A GC that empties
// a pool mid-measurement charges a whole rebuild to that measurement,
// so only the best of three is held against the budget.
func warmAllocs(t *testing.T, run func()) float64 {
	t.Helper()
	run()
	best := testing.AllocsPerRun(10, run)
	for range 2 {
		best = min(best, testing.AllocsPerRun(10, run))
	}
	return best
}

// TestWarmJobAllocs is the whole-job allocation gate: once the pools are
// warm, setting up a job — building its synthetic program, resetting a
// simulator, opening a trace — must not allocate per uop, per static
// instruction or per trace block, only a fixed handful of objects.
func TestWarmJobAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes pools drop objects at random")
	}
	ctx := context.Background()
	r := NewRunner()
	w := Suite412()[0]
	for _, pol := range []Policy{PolicyBaseline(), PolicyFull()} {
		j := Job{Policy: pol, Workload: w, N: 4_000, Warmup: 1_000}
		got := warmAllocs(t, func() {
			if _, err := r.Run(ctx, j); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("warm Run %s: %.0f allocs", j.Label(), got)
		if got > warmJobAllocBudget {
			t.Errorf("warm Run %s: %.0f allocs per job, want <= %d", j.Label(), got, warmJobAllocBudget)
		}
	}

	replay := func() {
		if _, err := r.RunTraceFile(ctx, BaselineConfig(), PolicyBaseline(), goldenTracePath, 4_000); err != nil {
			t.Fatal(err)
		}
	}
	got := warmAllocs(t, replay)
	t.Logf("warm RunTraceFile: %.0f allocs", got)
	if got > warmJobAllocBudget {
		t.Errorf("warm RunTraceFile: %.0f allocs per job, want <= %d", got, warmJobAllocBudget)
	}
	best := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		replay()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("warm RunTraceFile: %d B", best)
	if best >= 16<<10 {
		t.Errorf("warm RunTraceFile allocated %d B per job, want < 16 KiB", best)
	}
}

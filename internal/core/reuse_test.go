package core

import (
	"reflect"
	"runtime"
	"testing"
	"weak"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/steer"
	"repro/internal/synth"
	"repro/internal/trace"
)

// reuseJob is one (config, features, workload) point for the reset-reuse
// property tests. The set deliberately crosses shapes (different ROB,
// queue and predictor geometries) so Reset exercises both the reuse path
// and the rebuild path between consecutive runs.
type reuseJob struct {
	label string
	cfg   config.Processor
	pol   steer.Features
	n     uint64
}

func reuseJobs() []reuseJob {
	small := config.WithHelper()
	small.ROBSize = 64
	small.WideIQ, small.HelperIQ, small.FPIQ = 16, 16, 16
	ratio := config.WithHelper()
	ratio.HelperClockRatio = 4
	return []reuseJob{
		{"baseline", config.PentiumLikeBaseline(), steer.Baseline(), 15000},
		{"helper-888", config.WithHelper(), steer.F888(), 15000},
		{"helper-ir", config.WithHelper(), steer.FIR(), 15000},
		{"helper-small", small, steer.FCR(), 15000},
		{"helper-ratio4", ratio, steer.FIR(), 15000},
	}
}

// reuseSource returns a deterministic finite trace replayed cyclically,
// so every run of the same job sees the identical uop stream.
func reuseSource(t *testing.T) []isa.Uop {
	t.Helper()
	return trace.Record(synth.MustNewStream(synth.DefaultParams()), 2000)
}

// TestResetReuseMatchesFresh pins the contract behind the sim pool: a Sim
// reset in place for a new job produces a Result deep-equal to a freshly
// constructed Sim's, across shape changes and in any job order.
func TestResetReuseMatchesFresh(t *testing.T) {
	jobs := reuseJobs()
	uops := reuseSource(t)

	fresh := make([]Result, len(jobs))
	for i, j := range jobs {
		sim, err := New(j.cfg, j.pol, trace.NewSliceSource(uops))
		if err != nil {
			t.Fatalf("%s: %v", j.label, err)
		}
		fresh[i] = sim.Run(j.n)
	}

	// One Sim serves every job: reverse order (forces shape rebuilds in
	// the opposite direction), then forward again (forces them back).
	var reused *Sim
	order := make([]int, 0, 2*len(jobs))
	for i := len(jobs) - 1; i >= 0; i-- {
		order = append(order, i)
	}
	for i := range jobs {
		order = append(order, i)
	}
	for _, idx := range order {
		j := jobs[idx]
		if reused == nil {
			sim, err := New(j.cfg, j.pol, trace.NewSliceSource(uops))
			if err != nil {
				t.Fatalf("%s: %v", j.label, err)
			}
			reused = sim
		} else if err := reused.Reset(j.cfg, j.pol, trace.NewSliceSource(uops)); err != nil {
			t.Fatalf("%s: reset: %v", j.label, err)
		}
		got := reused.Run(j.n)
		if !reflect.DeepEqual(got, fresh[idx]) {
			t.Errorf("%s: reused-sim result differs from fresh-sim result\n got: %+v\nwant: %+v",
				j.label, got, fresh[idx])
		}
	}
}

// TestAcquireReleaseMatchesFresh runs the same property through the pool
// API itself: sequential Acquire/Release cycles — where Acquire typically
// hands back the just-released Sim — must match fresh construction.
func TestAcquireReleaseMatchesFresh(t *testing.T) {
	jobs := reuseJobs()
	uops := reuseSource(t)
	for round := 0; round < 2; round++ {
		for i, j := range jobs {
			fresh, err := New(j.cfg, j.pol, trace.NewSliceSource(uops))
			if err != nil {
				t.Fatalf("%s: %v", j.label, err)
			}
			want := fresh.Run(j.n)

			pooled, err := Acquire(j.cfg, j.pol, trace.NewSliceSource(uops))
			if err != nil {
				t.Fatalf("%s: acquire: %v", j.label, err)
			}
			got := pooled.Run(j.n)
			Release(pooled)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round %d %s (job %d): pooled result differs from fresh", round, j.label, i)
			}
		}
	}
}

// TestResetRejectsInvalid mirrors New's validation on the reuse path and
// checks a failed Reset does not poison the Sim for a subsequent valid one.
func TestResetRejectsInvalid(t *testing.T) {
	uops := reuseSource(t)
	sim, err := New(config.WithHelper(), steer.FIR(), trace.NewSliceSource(uops))
	if err != nil {
		t.Fatal(err)
	}
	want := sim.Run(10000)

	bad := config.WithHelper()
	bad.ROBSize = 100 // not a power of two
	if err := sim.Reset(bad, steer.FIR(), trace.NewSliceSource(uops)); err == nil {
		t.Fatal("Reset must reject an invalid config")
	}
	if err := sim.Reset(config.PentiumLikeBaseline(), steer.F888(), trace.NewSliceSource(uops)); err == nil {
		t.Fatal("Reset must reject steering without the helper cluster")
	}
	if err := sim.Reset(config.WithHelper(), steer.FIR(), trace.NewSliceSource(uops)); err != nil {
		t.Fatalf("valid Reset after rejected ones: %v", err)
	}
	if got := sim.Run(10000); !reflect.DeepEqual(got, want) {
		t.Error("result drifted after rejected Reset attempts")
	}
}

// TestSteadyStateZeroAllocs is the zero-alloc gate for the measured
// phase: once a Sim is warm, continuing to simulate must not touch the
// heap at all. A static full-feature rung exercises the entire hot path —
// rename with copies and splits, dual-cluster issue, width checking,
// flush recovery — so any per-tick or per-interval garbage that sneaks
// back into the core loop fails this test deterministically.
func TestSteadyStateZeroAllocs(t *testing.T) {
	uops := reuseSource(t)
	sim, err := New(config.WithHelper(), steer.FIR(), trace.NewSliceSource(uops))
	if err != nil {
		t.Fatal(err)
	}
	// Prime: grow the in-flight scratch lists, fault in the lazy
	// forced-wide set, let every table reach steady occupancy.
	sim.Run(30000)
	allocs := testing.AllocsPerRun(5, func() {
		sim.Run(5000)
	})
	if allocs != 0 {
		t.Fatalf("steady-state measured phase allocated %.1f times per 5k-uop run, want 0", allocs)
	}
}

// TestReleaseDropsSource checks that a released Sim no longer holds its
// uop source, which its owner may recycle (a pooled stream) or close (a
// trace file) right after Release, and that the next Acquire with a new
// source runs identically to New.
func TestReleaseDropsSource(t *testing.T) {
	uops := reuseSource(t)
	src := trace.NewSliceSource(uops)
	ref := weak.Make(src)
	sim, err := Acquire(config.WithHelper(), steer.FIR(), src)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(5000)
	Release(sim)
	src = nil
	runtime.GC()
	if ref.Value() != nil {
		t.Fatal("a released Sim still references its uop source")
	}

	fresh, err := New(config.WithHelper(), steer.FIR(), trace.NewSliceSource(uops))
	if err != nil {
		t.Fatal(err)
	}
	want := fresh.Run(10000)
	pooled, err := Acquire(config.WithHelper(), steer.FIR(), trace.NewSliceSource(uops))
	if err != nil {
		t.Fatal(err)
	}
	got := pooled.Run(10000)
	Release(pooled)
	if !reflect.DeepEqual(got, want) {
		t.Error("a Sim acquired after Release differs from a fresh one")
	}
	runtime.KeepAlive(sim)
}

package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestPublicAPIQuickstart(t *testing.T) {
	w, err := WorkloadByName("crafty")
	if err != nil {
		t.Fatal(err)
	}
	base := Run(BaselineConfig(), PolicyBaseline(), w, 30000)
	full := Run(HelperConfig(), PolicyFull(), w, 30000)
	if base.Metrics.IPC() <= 0 || full.Metrics.IPC() <= 0 {
		t.Fatal("runs must produce IPC")
	}
	if SpeedupOf(full, base) <= -0.5 {
		t.Errorf("implausible slowdown: %.2f", SpeedupOf(full, base))
	}
}

func TestWorkloadByNameErrors(t *testing.T) {
	if _, err := WorkloadByName("nosuch"); err == nil {
		t.Error("unknown workload must error")
	}
	if _, err := WorkloadByName("gcc"); err != nil {
		t.Errorf("gcc lookup failed: %v", err)
	}
}

func TestPolicyLadderExported(t *testing.T) {
	if len(PolicyLadder()) != 7 {
		t.Error("ladder must have 7 rungs")
	}
	if len(SpecInt2000()) != 12 {
		t.Error("12 SPEC workloads expected")
	}
	if len(Suite412()) != 412 {
		t.Error("412-trace suite expected")
	}
}

func TestCustomWorkload(t *testing.T) {
	p := SpecInt2000()[0].Params
	w, err := CustomWorkload("mine", p)
	if err != nil || w.Name != "mine" {
		t.Fatalf("custom workload: %v", err)
	}
	bad := p
	bad.Segments = 0
	if _, err := CustomWorkload("bad", bad); err == nil {
		t.Error("invalid params must error")
	}
}

func TestAnalyzeWidth(t *testing.T) {
	w, _ := WorkloadByName("gzip")
	study := AnalyzeWidth(w, 20000)
	if study.NarrowDep.Frac <= 0 || study.Distance.Average() <= 0 {
		t.Error("width study must measure something")
	}
}

func TestPowerAPI(t *testing.T) {
	w, _ := WorkloadByName("gap")
	base := Run(BaselineConfig(), PolicyBaseline(), w, 20000)
	full := Run(HelperConfig(), PolicyFull(), w, 20000)
	pb := EstimatePower(BaselineConfig(), base)
	pf := EstimatePower(HelperConfig(), full)
	if pb.EnergyNJ <= 0 || pf.EnergyNJ <= 0 {
		t.Fatal("power estimates must be positive")
	}
	_ = ED2Gain(pf, pb) // sign depends on the app; just exercise it
}

func TestTraceFileRoundTripAPI(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gzip.trace")
	w, _ := WorkloadByName("gzip")
	if err := WriteTraceFile(path, w, 5000); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		t.Fatal("trace file missing")
	}
	r, err := RunTraceFile(HelperConfig(), Policy888(), path, 8000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metrics.Committed < 8000 {
		t.Errorf("trace replay committed %d", r.Metrics.Committed)
	}
	if _, err := RunTraceFile(HelperConfig(), Policy888(), filepath.Join(dir, "absent"), 10); err == nil {
		t.Error("missing file must error")
	}
}

// TestTraceFileReplayMemory guards the streaming replay: a RunTraceFile
// run allocates a few blocks of buffers, not the decoded trace, so a
// 100k-uop trace costs what a 10k-uop one does.
func TestTraceFileReplayMemory(t *testing.T) {
	dir := t.TempDir()
	w, _ := WorkloadByName("gzip")
	r := NewRunner()
	alloc := func(uops int) uint64 {
		path := filepath.Join(dir, fmt.Sprintf("%d.trace", uops))
		if err := WriteTraceFile(path, w, uops); err != nil {
			t.Fatal(err)
		}
		run := func() {
			if _, err := r.RunTraceFile(context.Background(), HelperConfig(), Policy888(), path, 20_000); err != nil {
				t.Fatal(err)
			}
		}
		run() // fills the simulator pool
		// Best of three: a GC that empties the pool mid-measurement would
		// charge a whole simulator to the run.
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := alloc(10_000), alloc(100_000)
	t.Logf("TotalAlloc per run: 10k-uop trace %d B, 100k-uop trace %d B", small, large)
	if large >= 1<<20 {
		t.Errorf("100k-uop trace replay allocated %d B, want < 1 MB", large)
	}
	if d := max(small, large) - min(small, large); d > 64<<10 {
		t.Errorf("allocation grows with trace length: %d B apart", d)
	}
}

// failingReadSeeker fails every read once more than budget bytes have
// been read through it.
type failingReadSeeker struct {
	*bytes.Reader
	budget int
}

var errInjectedRead = errors.New("injected read failure")

func (f *failingReadSeeker) Read(p []byte) (int, error) {
	if len(p) > f.budget {
		return 0, errInjectedRead
	}
	n, err := f.Reader.Read(p)
	f.budget -= n
	return n, err
}

func TestRunTraceFileReadError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gzip.trace")
	w, _ := WorkloadByName("gzip")
	if err := WriteTraceFile(path, w, 3000); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Half the file reads: the failure lands mid-way through the first lap.
	src, err := trace.NewFileSource(&failingReadSeeker{Reader: bytes.NewReader(data), budget: len(data) / 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := replayTrace(context.Background(), HelperConfig(), Policy888(), path, src, 20_000)
	if !errors.Is(err, errInjectedRead) || !strings.Contains(err.Error(), path) {
		t.Errorf("err = %v, want the injected failure naming %s", err, path)
	}
	if !reflect.DeepEqual(res, Result{}) {
		t.Errorf("a failed replay returned a partial result: %+v", res.Metrics)
	}

	// The caller's cancellation is still reported as such.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewRunner().RunTraceFile(ctx, HelperConfig(), Policy888(), path, 1<<40); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled replay: err = %v, want context.Canceled", err)
	}
}

func TestRecordTrace(t *testing.T) {
	w, _ := WorkloadByName("vpr")
	uops := RecordTrace(w, 100)
	if len(uops) != 100 || uops[99].Seq != 99 {
		t.Error("record wrong")
	}
}

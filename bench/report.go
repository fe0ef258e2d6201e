package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/grid"
)

// options select one run of the benchmark.
type options struct {
	workload string
	seed     int
	seconds  time.Duration // timed phase: whole passes until this elapses
	trace    bool          // traced run: per-layer metrics and spans
	size     sizes
	workDir  string
	pinned   []string // pinned pass digests for this workload and seed
}

// report is the outcome of one run.
type report struct {
	metrics []metric
	verdict verdict
	spans   []span
	notes   []string
}

// minPasses is the fewest passes a run makes. A traced run alternates
// untraced and traced passes after pass 0, so it needs two of each.
func minPasses(traced bool) int {
	if traced {
		return 5
	}
	return simPasses
}

// gridDelta sums the grid server's counters over the traced passes.
type gridDelta struct {
	emptyPolls   uint64
	waits, admit summaryDelta
}

// summaryDelta is the part of a cumulative latency summary added over an
// interval.
type summaryDelta struct {
	n     uint64
	sumMS float64
}

func (d summaryDelta) mean() float64 { return d.sumMS / float64(d.n) }

func summarySince(before, after *grid.LatencySummary) summaryDelta {
	var d summaryDelta
	if after != nil {
		d = summaryDelta{after.Count, after.MeanMS * float64(after.Count)}
	}
	if before != nil {
		d.n -= before.Count
		d.sumMS -= before.MeanMS * float64(before.Count)
	}
	return d
}

func (g *gridDelta) add(before, after grid.Metrics) {
	g.emptyPolls += after.LeasePollEmpty - before.LeasePollEmpty
	w := summarySince(before.LeaseWaits, after.LeaseWaits)
	a := summarySince(stage(before, "admission"), stage(after, "admission"))
	g.waits.n, g.waits.sumMS = g.waits.n+w.n, g.waits.sumMS+w.sumMS
	g.admit.n, g.admit.sumMS = g.admit.n+a.n, g.admit.sumMS+a.sumMS
}

// runWorkload sets the workload up, runs its timed passes, checks every
// output and computes the run's metrics: end-to-end ones for an untraced
// run, per-layer ones for a traced run.
func runWorkload(ctx context.Context, o options) (*report, error) {
	// setup_s is an end-to-end metric, so only an untraced run times it.
	var setupS float64
	if !o.trace {
		var err error
		setupS, err = timeSetup(ctx, setupRequest{o.workload, o.seed, o.size, o.workDir})
		if err != nil {
			return nil, fmt.Errorf("timing the set-up of %s: %w", o.workload, err)
		}
	}
	rec := newRecorder()
	e, err := setupEnv(o.workload, o.seed, o.size, o.workDir, rec)
	if err != nil {
		return nil, fmt.Errorf("setting up %s: %w", o.workload, err)
	}
	defer e.close()

	var passes []*passResult
	var gd gridDelta
	var hits0 grid.Metrics
	if e.grid != nil {
		hits0 = e.grid.srv.Metrics()
	}
	ys := startYardstick()
	start := time.Now()
	for k := 0; ; k++ {
		if k >= minPasses(o.trace) && time.Since(start)+passes[k-1].wall/2 >= o.seconds {
			break
		}
		traced := o.trace && k%2 == 1
		var m0 grid.Metrics
		if e.grid != nil && traced {
			m0 = e.grid.srv.Metrics()
		}
		p, err := runPass(ctx, e, k, clients, traced, rec)
		if err != nil {
			ys.close()
			return nil, fmt.Errorf("%s pass %d: %w", o.workload, k, err)
		}
		p.slow = ys.slowdown(p.start, p.start.Add(p.wall))
		if e.grid != nil && traced {
			gd.add(m0, e.grid.srv.Metrics())
		}
		passes = append(passes, p)
	}
	timed := time.Since(start)
	ys.close()
	var hits uint64
	if e.grid != nil {
		hits = e.grid.srv.Metrics().CacheHits - hits0.CacheHits
	}

	rep := &report{verdict: verify(ctx, e, passes, o.pinned, hits)}
	sorted := untracedLatencies(passes)
	_, p90beyond := percentile(sorted, 90)
	tp, tv, tb, _ := highestTail(sorted, 10)
	rep.notes = append(rep.notes,
		fmt.Sprintf("workload %s seed %d: %d passes, %d jobs in %.1f s; GOMAXPROCS %d, %s",
			o.workload, o.seed, len(passes), rep.verdict.attempted, timed.Seconds(), runtime.GOMAXPROCS(0), runtime.Version()),
		fmt.Sprintf("job latency samples %d: p90 has %d beyond it; highest percentile with >=10 beyond is p%g = %.3f ms (%d beyond)",
			len(sorted), p90beyond, tp, tv, tb),
		fmt.Sprintf("pinned digests: %d", len(o.pinned)),
		"pass throughput (Muops/s, as measured; * traced): "+passRates(passes),
		"pass slowdown against the yardstick's reference speed: "+passSlowdowns(passes),
		"pass peak resident set (MB): "+passRSS(passes))
	if e.grid != nil {
		rep.notes = append(rep.notes, fmt.Sprintf("grid store hits %d", hits))
	}
	if !o.trace {
		rep.metrics = endToEnd(setupS, passes)
		return rep, nil
	}

	var traced []*passResult
	var untracedRates, tracedRates []float64
	var tracedWall time.Duration
	for _, p := range passes[1:] {
		if p.traced {
			traced = append(traced, p)
			tracedRates = append(tracedRates, p.throughput())
			tracedWall += p.wall
		} else {
			untracedRates = append(untracedRates, p.throughput())
		}
	}
	comp, err := components(ctx, e, passes[0])
	if err != nil {
		return nil, fmt.Errorf("%s components: %w", o.workload, err)
	}
	rep.metrics = append(comp, parallelLayer(traced)...)
	if e.grid != nil {
		rep.spans = rec.snapshot()
		rep.metrics = append(rep.metrics, gridLayer(rep.spans, gd, tracedWall)...)
	} else {
		gm, err := gridProbe(ctx, e, passes[0], rec)
		if err != nil {
			return nil, fmt.Errorf("%s grid probe: %w", o.workload, err)
		}
		rep.metrics = append(rep.metrics, gm...)
		rep.spans = rec.snapshot()
	}
	rep.metrics = append(rep.metrics, simCounters(passes)...)
	rep.metrics = append(rep.metrics, metric{"bench.trace_overhead_pct",
		100 * (median(untracedRates)/median(tracedRates) - 1), "%"})
	return rep, nil
}

// passSlowdowns lists each pass's yardstick slowdown.
func passSlowdowns(passes []*passResult) string {
	out := make([]string, len(passes))
	for i, p := range passes {
		out[i] = fmt.Sprintf("%.3f", p.slow)
	}
	return strings.Join(out, " ")
}

// passRSS lists each pass's peak resident set.
func passRSS(passes []*passResult) string {
	out := make([]string, len(passes))
	for i, p := range passes {
		out[i] = fmt.Sprintf("%.1f", float64(p.peakRSS)/(1<<20))
	}
	return strings.Join(out, " ")
}

// passRates lists each pass's throughput, traced passes marked with *.
func passRates(passes []*passResult) string {
	rates := make([]string, len(passes))
	for i, p := range passes {
		rates[i] = fmt.Sprintf("%.3f", p.throughput()/1e6)
		if p.traced {
			rates[i] += "*"
		}
	}
	return strings.Join(rates, " ")
}

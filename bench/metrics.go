package main

import (
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/grid"
)

// metric is one named measurement with its unit.
type metric struct {
	name  string
	value float64
	unit  string
}

// simPasses is how many leading passes the simulated metrics cover. Every
// run makes at least this many passes, so the simulated metrics cover the
// same jobs on every commit however fast it runs.
const simPasses = 3

// untracedLatencies returns the call latencies (ms) of the untraced
// passes at the reference machine speed, sorted.
func untracedLatencies(passes []*passResult) []float64 {
	var lats []float64
	for _, p := range passes {
		if !p.traced {
			for _, c := range p.calls {
				lats = append(lats, ms(p.scaledLatency(c)))
			}
		}
	}
	return sortedCopy(lats)
}

// endToEnd computes the end-to-end metrics over the untraced passes. Host
// times are at the reference machine speed (see yardstick.go), except
// setup_s.
func endToEnd(setupS float64, passes []*passResult) []metric {
	var rates, rss []float64
	var jobs int
	var cpuMS float64
	var mallocs, alloc uint64
	for _, p := range passes {
		if p.traced {
			continue
		}
		rates = append(rates, p.scaledThroughput())
		rss = append(rss, float64(p.peakRSS)/(1<<20))
		jobs += len(p.jobs)
		cpuMS += ms(p.cpu) / p.slow
		mallocs += p.mallocs
		alloc += p.alloc
	}
	sorted := untracedLatencies(passes)
	p50, _ := percentile(sorted, 50)
	p90, _ := percentile(sorted, 90)
	ipc, speedup := simHeadline(passes)
	n := float64(jobs)
	return []metric{
		{"setup_s", setupS, "s"},
		{"sim_uops_per_s", median(rates), "uops/s"},
		{"job_ms_p50", p50, "ms"},
		{"job_ms_p90", p90, "ms"},
		{"cpu_ms_per_job", cpuMS / n, "ms"},
		{"peak_rss_mb", median(rss), "MB"},
		{"alloc_kb_per_job", float64(alloc) / 1024 / n, "KB"},
		{"allocs_per_job", float64(mallocs) / n, "count"},
		{"sim_ipc", ipc, "IPC"},
		{"helper_speedup_pct", speedup, "%"},
	}
}

// simCalls calls fn for every successful call of the first simPasses
// passes, with the baseline IPC of the same input in the same pass (0
// when the pass has none).
func simCalls(passes []*passResult, fn func(j job, r *repro.Result, baseIPC float64)) {
	for _, p := range passes[:min(simPasses, len(passes))] {
		base := map[string]float64{}
		for i, c := range p.calls {
			if c.err == nil && p.jobs[i].base {
				base[p.jobs[i].group] = c.res.Metrics.IPC()
			}
		}
		for i := range p.calls {
			if p.calls[i].err == nil {
				fn(p.jobs[i], &p.calls[i].res, base[p.jobs[i].group])
			}
		}
	}
}

// simHeadline returns the mean IPC over all jobs and the mean IPC speedup
// (percent) of steered jobs over their same-input baseline.
func simHeadline(passes []*passResult) (ipc, speedupPct float64) {
	var ipcs, ups []float64
	simCalls(passes, func(j job, r *repro.Result, baseIPC float64) {
		ipcs = append(ipcs, r.Metrics.IPC())
		if !j.base && baseIPC > 0 {
			ups = append(ups, 100*(r.Metrics.IPC()/baseIPC-1))
		}
	})
	return mean(ipcs), mean(ups)
}

// simCounters are the simulated per-layer counters, summed over the same
// jobs as the simulated headline metrics.
func simCounters(passes []*passResult) []metric {
	var wCorrect, wAll, wFatal, committed, branches, mispred uint64
	var l1a, l1m, l2a, l2m, tca, tcm, helper, copies, stalls, cycles, occW, occH uint64
	simCalls(passes, func(_ job, r *repro.Result, _ float64) {
		m := &r.Metrics
		wCorrect += m.WidthCorrect
		wAll += m.WidthCorrect + m.WidthNonFatal + m.WidthFatal
		wFatal += m.WidthFatal
		committed += m.Committed
		branches += m.Branches
		mispred += m.BranchMispredicts
		l1a, l1m = l1a+r.L1.Accesses, l1m+r.L1.Misses
		l2a, l2m = l2a+r.L2.Accesses, l2m+r.L2.Misses
		tca, tcm = tca+r.TC.Accesses, tcm+r.TC.Misses
		helper += m.SteeredHelper
		copies += m.CopiesCreated
		stalls += m.StallROB + m.StallIQ + m.StallPhys + m.StallMOB
		cycles += m.WideCycles
		occW += m.IQOccSum[0]
		occH += m.IQOccSum[1]
	})
	return []metric{
		{"predict.width_correct_frac", ratio(wCorrect, wAll), "ratio"},
		{"predict.width_fatal_per_kuop", 1000 * ratio(wFatal, committed), "1/kuop"},
		{"predict.branch_mispredict_rate", ratio(mispred, branches), "ratio"},
		{"cache.l1_miss_rate", ratio(l1m, l1a), "ratio"},
		{"cache.l2_miss_rate", ratio(l2m, l2a), "ratio"},
		{"cache.tc_miss_rate", ratio(tcm, tca), "ratio"},
		{"core.helper_frac", ratio(helper, committed), "ratio"},
		{"core.copies_per_uop", ratio(copies, committed), "ratio"},
		{"core.stall_frac", ratio(stalls, cycles), "ratio"},
		{"core.iq_occ_wide", ratio(occW, cycles), "entries"},
		{"core.iq_occ_helper", ratio(occH, cycles), "entries"},
	}
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// parallelLayer measures the closed loop over the given passes: the share
// of client time spent inside calls, and CPU use against the processors
// Go may run on.
func parallelLayer(passes []*passResult) []metric {
	var calls, wall, cpu time.Duration
	for _, p := range passes {
		wall += p.wall
		cpu += p.cpu
		for _, c := range p.calls {
			calls += c.lat
		}
	}
	return []metric{
		{"parallel.busy_frac", float64(calls) / (float64(wall) * clients), "ratio"},
		{"parallel.cpu_util", float64(cpu) / (float64(wall) * float64(runtime.GOMAXPROCS(0))), "ratio"},
	}
}

// gridLayer derives the grid metrics from the spans of grid calls and the
// server's counters over them; wall is the time the calls took. A client
// span is a grid call when the store was consulted under it.
func gridLayer(spans []span, gd gridDelta, wall time.Duration) []metric {
	self := map[string]time.Duration{} // exec time by job
	var execs []float64
	var execSum time.Duration
	for _, s := range spans {
		if s.Name == spanExec {
			execs = append(execs, ms(s.dur()))
			execSum += s.dur()
			self[s.Job] = s.dur()
		}
	}
	// A client call is a hit when its store lookup hit.
	hitJob := map[int64]bool{}
	for _, s := range spans {
		if s.Parent != 0 && strings.HasPrefix(s.Name, spanStoreGet) {
			hitJob[s.Parent] = strings.HasSuffix(s.Name, ".hit")
		}
	}
	var hits, misses []float64
	var tax time.Duration
	var taxed int
	for _, s := range spans {
		hit, isGrid := hitJob[s.ID]
		if s.Name != spanClient || !isGrid {
			continue
		}
		if hit {
			hits = append(hits, ms(s.dur()))
			continue
		}
		misses = append(misses, ms(s.dur()))
		if e, ok := self[s.Job]; ok {
			tax += s.dur() - e
			taxed++
		}
	}
	var gets, puts []float64
	var getHits int
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, spanStoreGet):
			gets = append(gets, us(s.dur()))
			if strings.HasSuffix(s.Name, ".hit") {
				getHits++
			}
		case s.Name == spanStorePut:
			puts = append(puts, us(s.dur()))
		}
	}
	executed := float64(len(execs))
	heartbeats := float64(len(durations(spans, spanHTTPPrefix+"/v1/heartbeat")))
	return []metric{
		{"grid.hit_ms_p50", p50(hits), "ms"},
		{"grid.miss_ms_p50", p50(misses), "ms"},
		{"grid.exec_ms_p50", p50(execs), "ms"},
		{"grid.tax_ms_per_miss", ms(tax) / float64(taxed), "ms"},
		{"grid.batch_ms_p50", p50(durations(spans, spanSrvPrefix+"/v1/batch")), "ms"},
		{"grid.lease_rtt_ms_p50", p50(durations(spans, spanHTTPPrefix+"/v1/lease")), "ms"},
		{"grid.complete_rtt_ms_p50", p50(durations(spans, spanHTTPPrefix+"/v1/complete")), "ms"},
		{"grid.heartbeats_per_job", heartbeats / executed, "count"},
		{"grid.empty_polls_per_job", float64(gd.emptyPolls) / executed, "count"},
		{"grid.lease_wait_ms_mean", gd.waits.mean(), "ms"},
		{"grid.admission_ms_mean", gd.admit.mean(), "ms"},
		{"grid.store_get_us", mean(gets), "us"},
		{"grid.store_put_us", mean(puts), "us"},
		{"grid.hit_frac", float64(getHits) / float64(len(gets)), "ratio"},
		{"grid.worker_idle_frac", 1 - float64(execSum)/(float64(wall)*gridParallel), "ratio"},
	}
}

func p50(xs []float64) float64 {
	v, _ := percentile(sortedCopy(xs), 50)
	return v
}

// stage returns the anonymous tenant's summary of one stage, or nil.
func stage(m grid.Metrics, name string) *grid.LatencySummary {
	for _, t := range m.Tenants {
		if t.ID == grid.DefaultTenant {
			if s, ok := t.Stages[name]; ok {
				return &s
			}
		}
	}
	return nil
}

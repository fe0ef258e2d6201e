// Command agree checks that the benchmark agrees with itself. It runs two
// untraced sets of every workload in BENCHMARK.json on the same commit,
// each set over the same seeds, and prints per workload and end-to-end
// metric both sets' medians, their quartile spread, the bound, and whether
// the two agree. Simulated metrics and pass digests must match exactly,
// seed by seed. A final traced set prints every per-layer metric,
// bench.trace_overhead_pct among them.
//
// Run it from the repository root:
//
//	go -C bench run ./agree
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// result is one run's JSON summary and pass digests.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	digests []string
}

// simulated metrics repeat exactly for a seed on one commit.
var simulated = map[string]bool{"sim_ipc": true, "helper_speedup_pct": true}

// floors are absolute amounts a difference must also exceed before it
// counts. A set-up takes tens of milliseconds, so setup_s regresses only
// when it grows by more than its relative bound and by more than 0.05 s.
var floors = map[string]float64{"setup_s": 0.05}

// runs is the number of runs per workload and set, over seeds 0..runs-1.
const runs = 10

func main() {
	root := flag.String("root", "..", "repository root (where BENCHMARK.json is)")
	flag.Parse()
	if err := run(*root); err != nil {
		fmt.Fprintln(os.Stderr, "agree:", err)
		os.Exit(1)
	}
}

func run(root string) error {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var b benchmark
	if err := json.Unmarshal(data, &b); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	allAgree := true
	for _, w := range b.Workloads {
		var sets [2][]result
		for s := range sets {
			for seed := 0; seed < runs; seed++ {
				r, err := runBench(root, b, w.Name, seed, 0)
				if err != nil {
					return err
				}
				sets[s] = append(sets[s], r)
			}
		}
		if !report(b, w.Name, sets) {
			allAgree = false
		}
	}
	var names []string
	var traced []result
	for _, w := range b.Workloads {
		r, err := runBench(root, b, w.Name, 0, 1)
		if err != nil {
			return err
		}
		if !r.Correct {
			allAgree = false
		}
		names = append(names, w.Name)
		traced = append(traced, r)
	}
	fmt.Printf("\ntraced set (seed 0), per-layer metrics:\n  %-32s", "metric")
	for _, n := range names {
		fmt.Printf(" %15s", n)
	}
	fmt.Println()
	for _, m := range b.PerLayer {
		fmt.Printf("  %-32s", m.Name+" ("+m.Unit+")")
		for _, r := range traced {
			fmt.Printf(" %15.6g", r.Metrics[m.Name].Value)
		}
		fmt.Println()
	}
	if !allAgree {
		return fmt.Errorf("the two sets disagree")
	}
	return nil
}

// runBench runs the benchmark command once from the repository root.
func runBench(root string, b benchmark, workload string, seed, trace int) (result, error) {
	args := append(append([]string(nil), b.Command[1:]...), "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(b.RunSeconds), "--trace", fmt.Sprint(trace))
	cmd := exec.Command(b.Command[0], args...)
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var r result
	sc := bufio.NewScanner(bytes.NewReader(out))
	var last string
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Split(last, "\t"); len(f) == 3 && f[0] == "digest" {
			r.digests = append(r.digests, f[2])
		}
	}
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	fmt.Fprintf(os.Stderr, "agree: %s seed %d trace %d: correct %v\n", workload, seed, trace, r.Correct)
	return r, nil
}

// report prints one workload's comparison and says whether the sets agree.
func report(b benchmark, workload string, sets [2][]result) bool {
	ok := true
	fmt.Printf("\n%s (%d runs per set)\n", workload, runs)
	fmt.Printf("  %-20s %14s %14s %8s %9s %9s %6s  %s\n", "metric", "median A", "median B", "B vs A", "spread A", "spread B", "bound", "verdict")
	for _, m := range b.EndToEnd {
		var vals [2][]float64
		for s := range sets {
			for _, r := range sets[s] {
				vals[s] = append(vals[s], r.Metrics[m.Name].Value)
			}
		}
		medA, medB := median(vals[0]), median(vals[1])
		spreadA, spreadB := spread(vals[0]), spread(vals[1])
		// beyond says whether a difference d, relative to base, exceeds
		// both the bound and the metric's absolute floor.
		beyond := func(d, base float64) bool {
			return d > m.Bound && d*math.Abs(base) > floors[m.Name]
		}
		verdict := "agree"
		switch {
		case simulated[m.Name] && !equal(vals[0], vals[1]):
			verdict = "DISAGREE (simulated metric differs)"
		case beyond(math.Abs(medB-medA)/math.Abs(medA), medA):
			verdict = "DISAGREE (median)"
		case beyond(spreadA, medA) || beyond(spreadB, medB):
			verdict = "DISAGREE (spread)"
		}
		if verdict != "agree" {
			ok = false
		}
		fmt.Printf("  %-20s %14.6g %14.6g %+7.2f%% %8.2f%% %8.2f%% %5.0f%%  %s\n",
			m.Name, medA, medB, 100*(medB-medA)/medA, 100*spreadA, 100*spreadB, 100*m.Bound, verdict)
	}
	digests := "identical"
	for i := range sets[0] {
		a, c := sets[0][i], sets[1][i]
		if !a.Correct || !c.Correct {
			digests = "INCORRECT RUN"
			ok = false
			break
		}
		n := min(len(a.digests), len(c.digests))
		if n == 0 || strings.Join(a.digests[:n], ",") != strings.Join(c.digests[:n], ",") {
			digests = "DIFFER"
			ok = false
			break
		}
	}
	fmt.Printf("  digests: %s\n", digests)
	return ok
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the distance between the first and third quartiles as a
// share of the median, with quartiles as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		m := len(s) + 1
		j := int(math.Floor(p * float64(m)))
		delta := p*float64(m) - float64(j)
		j = max(1, min(j, len(s)-1))
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return (q(0.75) - q(0.25)) / math.Abs(median(s))
}

func equal(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return len(a) == len(b)
}

// Command bench is the repository's end-to-end benchmark. It drives one
// workload through the public entry points of the simulator and its grid
// from a closed loop of two clients, checks every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) by name
// with their units. The last line of standard output is a JSON summary.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload suite412 --seed 0 --seconds 20 --trace 0
//
// See bench/README.md for the workloads, the metrics and their bounds.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro"
	"repro/internal/parallel"
)

// workDir holds build outputs, recorded traces and span files, relative
// to the directory the benchmark runs in.
const workDir = ".bench_build"

//go:embed pins.json
var pinsJSON []byte

// pins are the digests of the leading passes of the full-size
// workloads, by workload, as written by --pin.
func pins() (map[string][]string, error) {
	var p map[string][]string
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

func main() {
	if req := os.Getenv(setupChildEnv); req != "" {
		os.Exit(runSetupChild(req, os.Stdout))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main with its exit code: 0 for a correct run, 1 for a run whose
// outputs failed their checks, 2 when no result could be produced.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: spec-ladder, suite412, replay-dynamic or grid-mixed")
	seed := fs.Int("seed", 0, "workload seed: sets the order in which the clients take each pass's jobs")
	seconds := fs.Float64("seconds", 20, "timed phase length in seconds (whole passes, at least three)")
	traceFlag := fs.Int("trace", 0, "1 for a traced run: per-layer metrics and a span file")
	spanPath := fs.String("spans", "", "span file of a traced run (default "+workDir+"/spans-<workload>.ndjson)")
	pin := fs.Bool("pin", false, "print the digests of every workload's pinned passes as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pin {
		if err := writePins(ctx, stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	allPins, err := pins()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	o := options{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traceFlag == 1,
		size:     fullSize,
		workDir:  workDir,
		pinned:   allPins[*name],
	}
	rep, err := runWorkload(ctx, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.trace {
		path := *spanPath
		if path == "" {
			path = filepath.Join(workDir, "spans-"+o.workload+".ndjson")
		}
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		rep.notes = append(rep.notes, fmt.Sprintf("spans: %d written to %s", len(rep.spans), path))
	}
	if err := printReport(stdout, rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if rep.verdict.failed > 0 {
		return 1
	}
	return 0
}

// summary is the JSON object on the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints the notes, one line per metric and the JSON summary.
func printReport(w io.Writer, rep *report) error {
	s := summary{
		Correct:   rep.verdict.failed == 0,
		Attempted: rep.verdict.attempted,
		Failed:    rep.verdict.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, "#", n)
	}
	for i, d := range rep.verdict.digests {
		fmt.Fprintf(w, "digest\t%d\t%s\n", i, d)
	}
	for _, p := range rep.verdict.problems {
		fmt.Fprintln(w, "problem\t"+p)
	}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		fmt.Fprintf(w, "metric\t%s\t%.6g\t%s\n", m.name, m.value, m.unit)
		s.Metrics[m.name] = metricValue{m.value, m.unit}
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// writePins computes the digests of the pinned passes of every workload
// on the reference path and writes them as JSON, the content of pins.json.
func writePins(ctx context.Context, w io.Writer) error {
	out := map[string][]string{}
	for _, wl := range workloadList {
		e, err := setupEnv(wl.name, 0, fullSize, workDir, newRecorder())
		if err != nil {
			return err
		}
		for k := 0; k < pinPasses(wl.name); k++ {
			d, err := referenceDigest(ctx, e, k)
			if err != nil {
				e.close()
				return err
			}
			out[wl.name] = append(out[wl.name], d)
		}
		e.close()
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}

// referenceDigest runs pass k on the reference path and returns its digest.
func referenceDigest(ctx context.Context, e *env, k int) (string, error) {
	jobs, err := e.passJobs(k)
	if err != nil {
		return "", err
	}
	results := make([]repro.Result, len(jobs))
	_, err = parallel.Map(ctx, len(jobs), clients, func(ctx context.Context, i int) (struct{}, error) {
		r, err := reference(ctx, jobs[i])
		results[jobs[i].idx] = r
		return struct{}{}, err
	})
	if err != nil {
		return "", err
	}
	return digest(results)
}

// Command perfbench is the repository's benchmark. It measures the real
// zeiotbench and zeiotd binaries from outside on three workloads, checks
// every output they produce against references, and prints the end-to-end
// metrics; a traced run (-trace 1) replays the workload with spans and
// probes each layer's exported functions for the per-layer metrics.
//
// Run it from the repository root through perfbench/run.sh, which builds
// the binaries first:
//
//	bash perfbench/run.sh --workload suite --seed 3 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// BENCHMARK.json at the repository root lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// Layout inside the checkout, relative to the repository root.
const (
	buildDir  = ".bench_build"
	storedDir = "perfbench/refs/seed1"
)

// refWorkers is how many experiments run at once while computing
// references: one per core, so set-up ends as soon as the box allows.
var refWorkers = runtime.NumCPU()

// benchEnv is what every workload needs from the checkout.
type benchEnv struct {
	zeiotbench, zeiotd string
	refs               *refStore
	traceDir           string
}

type metricVal struct {
	value float64
	unit  string
	n     int
}

// report accumulates one run's outcome.
type report struct {
	workload          string
	attempted, failed int
	failures          []string
	invalid           []string // reasons the run does not count
	metrics           map[string]metricVal
	extra             []string // ordered names of informational metrics
	layers            map[string]float64
	notes             []string
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metricVal{}, layers: map[string]float64{}}
}

// maxFailureLines bounds how many failure messages a run prints.
const maxFailureLines = 20

func (r *report) fail(n int, err error) {
	r.failed += n
	if len(r.failures) < maxFailureLines {
		r.failures = append(r.failures, err.Error())
	}
}

func (r *report) metric(name string, v float64, unit string, n int) {
	r.metrics[name] = metricVal{v, unit, n}
}

// info records a metric printed in the table but not part of the JSON
// result, such as the per-class latencies of daemon-mix.
func (r *report) info(name string, v float64, unit string, n int) {
	if _, dup := r.metrics[name]; !dup {
		r.extra = append(r.extra, name)
	}
	r.metrics[name] = metricVal{v, unit, n}
}

func (r *report) layer(name string, v float64) { r.layers[name] = v }

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: suite, train or daemon-mix")
		seed     = flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 30, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	)
	flag.Parse()
	if err := os.Chdir(repoRoot()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	refs, err := newRefStore(storedDir, filepath.Join(buildDir, "refs"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	env := &benchEnv{
		zeiotbench: filepath.Join(buildDir, "bin", "zeiotbench"),
		zeiotd:     filepath.Join(buildDir, "bin", "zeiotd"),
		refs:       refs,
		traceDir:   filepath.Join(buildDir, "traces"),
	}
	for _, p := range []string{env.zeiotbench, env.zeiotd, storedDir} {
		if _, err := os.Stat(p); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v (run through perfbench/run.sh from a full checkout)\n", err)
			return 2
		}
	}

	ctx := context.Background()
	rep := newReport(*workload)
	var tr *tracer
	if *trace == 1 {
		tr = &tracer{}
	}
	switch *workload {
	case "suite", "train":
		w := suiteWorkload()
		if *workload == "train" {
			w = trainWorkload()
		}
		if tr != nil {
			err = traceCLI(ctx, env, w, *seed, rep, tr)
		} else {
			err = measureCLI(ctx, env, w, *seed, *seconds, rep)
		}
	case "daemon-mix":
		err = runDaemonMix(ctx, env, *seed, *seconds, rep, tr)
	default:
		err = fmt.Errorf("unknown workload %q (want suite, train or daemon-mix)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if tr != nil {
		if err := writeTrace(env, rep, *seed, tr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	return printResult(rep, tr != nil)
}

// repoRoot is the checkout root: the working directory, or its parent
// when started from perfbench/ (as `go run .` there is).
func repoRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	if filepath.Base(wd) == "perfbench" {
		return filepath.Dir(wd)
	}
	return wd
}

func writeTrace(env *benchEnv, rep *report, seed uint64, tr *tracer) error {
	if err := os.MkdirAll(env.traceDir, 0o755); err != nil {
		return err
	}
	spans := tr.snapshot()
	path := filepath.Join(env.traceDir, fmt.Sprintf("%s-seed%d.json", rep.workload, seed))
	if err := writeChromeTrace(path, spans); err != nil {
		return err
	}
	fmt.Printf("trace: %s (%d spans, Chrome trace-event JSON)\n\nper-layer self time:\n", path, len(spans))
	printLayerTable(os.Stdout, layerTable(spans))
	fmt.Println()
	return nil
}

// printResult prints the human-readable table, then the JSON result line,
// and returns the exit code.
func printResult(rep *report, traced bool) int {
	for _, n := range rep.notes {
		fmt.Println("note:", n)
	}
	for _, f := range rep.failures {
		fmt.Println("FAILED:", f)
	}
	for _, why := range rep.invalid {
		fmt.Println("INVALID RUN:", why)
	}
	out := map[string]map[string]any{}
	if traced {
		fmt.Printf("%-36s %16s  %s\n", "per-layer metric", "value", "unit")
		for _, m := range perLayer {
			v := rep.layers[m.name]
			fmt.Printf("%-36s %16.6g  %s\n", m.name, v, m.unit)
			out[m.name] = map[string]any{"value": finite(v), "unit": m.unit}
		}
	} else {
		fmt.Printf("%-16s %-14s %16s  %-5s %s\n", "workload", "metric", "value", "unit", "samples")
		names := make([]string, 0, len(endToEnd)+len(rep.extra))
		for _, m := range endToEnd {
			names = append(names, m.name)
		}
		names = append(names, rep.extra...)
		for _, name := range names {
			m := rep.metrics[name]
			fmt.Printf("%-16s %-14s %16.6g  %-5s %d\n", rep.workload, name, m.value, m.unit, m.n)
		}
		for _, m := range endToEnd {
			out[m.name] = map[string]any{"value": finite(rep.metrics[m.name].value), "unit": m.unit}
		}
	}
	fmt.Printf("operations: attempted %d, failed %d\n", rep.attempted, rep.failed)
	res := map[string]any{
		"correct":   rep.failed == 0 && len(rep.invalid) == 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// finite maps NaN and ±Inf, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

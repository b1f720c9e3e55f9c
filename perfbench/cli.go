package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zeiot"
	"zeiot/internal/obs"
)

// cliWorkload is a zeiotbench invocation measured from outside the process.
type cliWorkload struct {
	ids  []string // experiments the invocation runs, in output order
	args []string // flags besides -seed; -json -timings only pick the output form
	// trainWorkers and batchKernel mirror the flags for the in-process
	// traced replay.
	trainWorkers, batchKernel int
}

func allExperimentIDs() []string {
	var ids []string
	for _, e := range zeiot.Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

func suiteWorkload() cliWorkload {
	return cliWorkload{ids: allExperimentIDs(), args: []string{"-json", "-timings"}}
}

func trainWorkload() cliWorkload {
	ids := []string{"e1", "e2", "e14", "e17", "e18"}
	return cliWorkload{
		ids:          ids,
		args:         []string{"-json", "-timings", "-e", strings.Join(ids, ","), "-trainworkers", "1", "-batchkernel", "8"},
		trainWorkers: 1, batchKernel: 8,
	}
}

// procStats is what the kernel reports about one finished child process.
type procStats struct {
	wall, cpu time.Duration
	rssMB     float64
}

// runProc runs bin with args to completion, returning its stdout and
// resource use. A non-zero exit is an error carrying stderr.
func runProc(ctx context.Context, bin string, args ...string) ([]byte, procStats, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	err := cmd.Run()
	st := procStats{wall: time.Since(start)}
	if cmd.ProcessState == nil {
		return nil, st, fmt.Errorf("%s: %w", bin, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		st.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		st.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if err != nil {
		return stdout.Bytes(), st, fmt.Errorf("%s %s: %w: %s", bin, strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return stdout.Bytes(), st, nil
}

// checkCLIOutput compares one zeiotbench -json -timings output against the
// references experiment by experiment, with timings stripped. It returns
// the per-experiment wall times the program reported and one error per
// experiment that is missing or differs.
func checkCLIOutput(out []byte, ids []string, seed uint64, refs map[jobSpec]reference) (map[string]time.Duration, []error) {
	var results []*zeiot.Result
	if err := json.Unmarshal(out, &results); err != nil {
		return nil, []error{fmt.Errorf("parse zeiotbench output: %w", err)}
	}
	byID := map[string]*zeiot.Result{}
	for _, r := range results {
		if r != nil {
			byID[r.ID] = r
		}
	}
	totals := map[string]time.Duration{}
	var errs []error
	for _, id := range ids {
		r := byID[id]
		if r == nil {
			errs = append(errs, fmt.Errorf("%s: missing from output", id))
			continue
		}
		totals[id] = r.Timings[zeiot.StageTotal]
		got, err := encodeResult(r)
		if err == nil {
			err = diffBytes(got, refs[jobSpec{Experiment: id, Seed: seed}].Bytes)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", id, err))
		}
	}
	return totals, errs
}

func cliSpecs(ids []string, seed uint64) []jobSpec {
	specs := make([]jobSpec, len(ids))
	for i, id := range ids {
		specs[i] = jobSpec{Experiment: id, Seed: seed}
	}
	return specs
}

// cliRefs is a CLI workload's set-up: it computes the reference of every
// experiment in-process at the workload seed with zeiotbench's default
// config, one experiment per core, and returns them with the time taken.
// Stored seed-1 references (equal to the repository goldens) take
// precedence, and the fresh computation must match them.
func cliRefs(ctx context.Context, env *benchEnv, w cliWorkload, seed uint64, rep *report) (map[jobSpec]reference, time.Duration, error) {
	start := time.Now()
	refs, err := computeRefs(ctx, cliSpecs(w.ids, seed), refWorkers)
	took := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	for j, r := range refs {
		stored, ok, err := env.refs.stored(j)
		if err != nil {
			return nil, 0, err
		}
		if !ok {
			continue
		}
		rep.attempted++
		if err := diffBytes(r.Bytes, stored.Bytes); err != nil {
			rep.fail(1, fmt.Errorf("%s in-process run against the stored reference: %w", j, err))
		}
		refs[j] = stored
	}
	return refs, took, nil
}

// measureCLI runs the set-up, then execs zeiotbench back to back for the
// run length and reports the end-to-end metrics. Another exec starts while
// at least half of one (by the median so far) fits in the run length, so
// the timed phase overruns it by at most half an exec.
func measureCLI(ctx context.Context, env *benchEnv, w cliWorkload, seed uint64, seconds float64, rep *report) error {
	refs, setup, err := cliRefs(ctx, env, w, seed, rep)
	if err != nil {
		return err
	}

	args := append([]string{"-seed", strconv.FormatUint(seed, 10)}, w.args...)
	var walls, cpus, rss []float64
	perExp := map[string][]float64{} // experiment → its time in each exec, ms
	start := time.Now()
	for len(walls) == 0 || time.Since(start).Seconds()+median(walls)/2 < seconds {
		out, st, runErr := runProc(ctx, env.zeiotbench, args...)
		walls = append(walls, st.wall.Seconds())
		cpus = append(cpus, st.cpu.Seconds())
		rss = append(rss, st.rssMB)
		rep.attempted += len(w.ids)
		if runErr != nil {
			rep.fail(len(w.ids), runErr)
			continue
		}
		totals, errs := checkCLIOutput(out, w.ids, seed, refs)
		for _, e := range errs {
			rep.fail(1, e)
		}
		for id, d := range totals {
			perExp[id] = append(perExp[id], float64(d)/1e6)
		}
	}

	rep.metric("wall_s", median(walls), "s", len(walls))
	rep.metric("cpu_s", median(cpus), "s", len(cpus))
	rep.metric("peak_rss_mb", median(rss), "MB", len(rss))
	rep.metric("setup_s", setup.Seconds(), "s", 1)
	rep.metric("op_ms", geoMeanOfMedians(perExp), "ms", len(perExp))
	return nil
}

// traceCLI is the traced run of a CLI workload: one untraced zeiotbench
// exec as the baseline, then the same experiments replayed in-process with
// a recorder and a span each, then the layer probes.
func traceCLI(ctx context.Context, env *benchEnv, w cliWorkload, seed uint64, rep *report, tr *tracer) error {
	refs, _, err := cliRefs(ctx, env, w, seed, rep)
	if err != nil {
		return err
	}
	args := append([]string{"-seed", strconv.FormatUint(seed, 10)}, w.args...)
	out, st, execErr := runProc(ctx, env.zeiotbench, args...)
	rep.attempted += len(w.ids)
	if execErr != nil {
		rep.fail(len(w.ids), execErr)
	} else {
		_, errs := checkCLIOutput(out, w.ids, seed, refs)
		for _, e := range errs {
			rep.fail(1, e)
		}
	}

	root := tr.begin(0, "workload", rep.workload)
	stages := map[string]float64{}
	var planHits, planMisses, routeHits, routeMisses, shardRebuilds, fullRebuilds float64
	replayStart := time.Now()
	for _, id := range w.ids {
		e, err := zeiot.FindExperiment(id)
		if err != nil {
			return err
		}
		rc := jobSpec{Experiment: id, Seed: seed}.runConfig()
		rc.TrainWorkers, rc.BatchKernel = w.trainWorkers, w.batchKernel
		reg := obs.NewRegistry()
		rc.Recorder = reg
		sp := tr.begin(root, "zeiot", id)
		res, err := e.Run(ctx, rc)
		rep.attempted++
		if err != nil {
			tr.end(sp, map[string]any{"error": err.Error()})
			rep.fail(1, fmt.Errorf("%s replay: %w", id, err))
			continue
		}
		args := map[string]any{}
		for stage, d := range res.Timings {
			args["stage."+stage+"_s"] = d.Seconds()
			if stage != zeiot.StageTotal {
				stages[stage] += d.Seconds()
			}
		}
		snap := reg.Snapshot()
		for name, v := range snap.Gauges {
			switch {
			case strings.HasSuffix(name, "plan_cache_hits"):
				planHits += v
			case strings.HasSuffix(name, "plan_cache_misses"):
				planMisses += v
			case strings.HasSuffix(name, "route_cache_hits"):
				routeHits += v
			case strings.HasSuffix(name, "route_cache_misses"):
				routeMisses += v
			case strings.HasSuffix(name, "shard_rebuilds"):
				shardRebuilds += v
			case strings.HasSuffix(name, "full_rebuilds"):
				fullRebuilds += v
			default:
				continue
			}
			args[name] = v
		}
		tr.end(sp, args)
		rep.layer("exp."+id+"_s", res.Timings[zeiot.StageTotal].Seconds())
		got, err := encodeResult(res)
		if err == nil {
			err = diffBytes(got, refs[jobSpec{Experiment: id, Seed: seed}].Bytes)
		}
		if err != nil {
			rep.fail(1, fmt.Errorf("%s replay: %w", id, err))
		}
	}
	replay := time.Since(replayStart)
	for _, s := range []string{zeiot.StageDataset, zeiot.StageTrain, zeiot.StageEval, zeiot.StageCharge} {
		rep.layer("stage."+s+"_s", stages[s])
	}
	rep.layer("microdeep.plan_cache_hit_ratio", ratio(planHits, planHits+planMisses))
	rep.layer("wsn.route_cache_hit_ratio", ratio(routeHits, routeHits+routeMisses))
	rep.layer("wsn.shard_rebuilds", shardRebuilds)
	rep.layer("wsn.full_rebuilds", fullRebuilds)
	if execErr == nil {
		rep.layer("trace.overhead_s", replay.Seconds()-st.wall.Seconds())
	}
	runProbes(ctx, root, seed, rep, tr)
	tr.end(root, nil)
	return nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

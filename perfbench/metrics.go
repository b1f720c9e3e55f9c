package main

import (
	"zeiot"
	"zeiot/internal/modality"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports, in BENCHMARK.json
// order. Each is defined on every workload:
//
//   - wall_s: suite/train, zeiotbench exec-to-exit wall time, median; daemon-mix,
//     a fresh job's time from its scheduled submit to the daemon's finished
//     timestamp, each experiment's median, then their geometric mean.
//   - cpu_s: user+sys CPU of the program under test; for daemon-mix, the
//     daemon over the timed phase only. Median over execs for suite/train.
//   - peak_rss_mb: peak resident set of the program under test; for
//     daemon-mix, over the timed phase.
//   - setup_s: suite/train, computing every reference in-process (once per
//     run); daemon-mix, daemon exec until /healthz answers and the working
//     set is warm and checked, median of daemonSetups set-ups.
//   - op_ms: latency of the workload's unit operation. suite/train: each
//     experiment's median time across the execs (as zeiotbench reports it),
//     then the geometric mean across experiments. daemon-mix: median
//     cache-hit POST /jobs latency from its scheduled send.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"op_ms", "ms"},
}

// perLayer lists the metrics every traced run reports, in BENCHMARK.json
// order. A layer a workload never reaches reports 0 there.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, e := range zeiot.Experiments() {
		defs = append(defs, metricDef{"exp." + e.ID + "_s", "s"})
	}
	for _, s := range []string{zeiot.StageDataset, zeiot.StageTrain, zeiot.StageEval, zeiot.StageCharge} {
		defs = append(defs, metricDef{"stage." + s + "_s", "s"})
	}
	defs = append(defs,
		metricDef{"cnn.forward_ns", "ns"},
		metricDef{"cnn.forward_ns_per_mac", "ns"},
		metricDef{"cnn.mac_model_ratio", "ratio"},
		metricDef{"cnn.train_ns_per_sample", "ns"},
		metricDef{"cnn.train_batched_ns_per_sample", "ns"},
		metricDef{"microdeep.train_ns_per_sample", "ns"},
		metricDef{"microdeep.plan_us", "us"},
		metricDef{"microdeep.charge_forward_us", "us"},
		metricDef{"microdeep.executor_forward_us", "us"},
		metricDef{"microdeep.plan_cache_hit_ratio", "ratio"},
		metricDef{"wsn.route_ns", "ns"},
		metricDef{"wsn.route_cache_hit_ratio", "ratio"},
		metricDef{"wsn.shard_flip_us", "us"},
		metricDef{"wsn.shard_rebuilds", "count"},
		metricDef{"wsn.full_rebuilds", "count"},
		metricDef{"csi.snapshot_us", "us"},
		metricDef{"csi.eig_us", "us"},
		metricDef{"csi.features_us", "us"},
		metricDef{"ml.softmax_fit_ms", "ms"},
		metricDef{"congestion.room_train_ms", "ms"},
		metricDef{"congestion.room_eval_ms", "ms"},
	)
	for _, name := range modality.Names() {
		defs = append(defs, metricDef{modalityMetric(name), "us"})
	}
	defs = append(defs,
		metricDef{"zeiot.config_key_us", "us"},
		metricDef{"jobs.submit_us", "us"},
		metricDef{"http.hit_p50_ms", "ms"},
		metricDef{"http.hit_p99_ms", "ms"},
		metricDef{"http.status_p50_ms", "ms"},
		metricDef{"http.result_p50_ms", "ms"},
		metricDef{"http.metrics_p50_ms", "ms"},
		metricDef{"http.list_p50_ms", "ms"},
		metricDef{"http.list_bytes", "bytes"},
		metricDef{"jobs.miss_p50_s", "s"},
		metricDef{"jobs.miss_p80_s", "s"},
		metricDef{"jobs.queue_wait_p50_s", "s"},
		metricDef{"jobs.queue_wait_p80_s", "s"},
		metricDef{"jobs.run_p50_s", "s"},
		metricDef{"jobs.queue_depth_max", "count"},
		metricDef{"jobs.rejected", "count"},
		metricDef{"jobs.retained", "count"},
		metricDef{"jobs.failed", "count"},
		metricDef{"cache.hit_ratio", "ratio"},
		metricDef{"loadgen.late_p99_ms", "ms"},
		metricDef{"trace.overhead_s", "s"},
	)
	return defs
}()

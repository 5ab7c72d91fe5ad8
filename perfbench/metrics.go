package main

// Every workload reports every metric below (BENCHMARK.json lists the
// same names): the end-to-end set with --trace 0, the per-layer set with
// --trace 1. README.md defines each one per workload.

var endToEndUnits = map[string]string{
	"setup_s":      "s",
	"peak_mem_mb":  "MB",
	"capacity_wps": "windows/s",
}

var endToEndMetrics = []string{"setup_s", "peak_mem_mb", "capacity_wps"}

var perLayerUnits = map[string]string{
	"setup.dataset_s":             "s",
	"setup.rf_train_s":            "s",
	"setup.tcn_small_s":           "s",
	"setup.tcn_big_s":             "s",
	"setup.records_s":             "s",
	"tcn.big.batch_us_per_window": "us",
	"tcn.big.serial_us.p50":       "us",
	"tcn.small.serial_us.p50":     "us",
	"at.estimate_us.p50":          "us",
	"rf.classify_us.p50":          "us",
	"rf.calls_per_window":         "count",
	"rf.unique_frac":              "frac",
	"serve.batch_windows.mean":    "count",
	"serve.infer_busy_frac":       "frac",
	"serve.submit_us.p50":         "us",
	"serve.tick_ms.p50":           "ms",
	"serve.tick_self_ms.p50":      "ms",
	"loadgen.late_ms.p99":         "ms",
	"sim.self_us_per_window":      "us",
	"sim.offload_frac":            "frac",
	"sim.gated_frac":              "frac",
	"sim.fallback_frac":           "frac",
	"snapshot.encode_us":          "us",
	"snapshot.decode_us":          "us",
	"snapshot.bytes":              "bytes",
	"fleet.build_user_ms":         "ms",
	"fleet.sim_user_ms":           "ms",
	"fleet.windows_per_user":      "count",
	"trace.overhead_frac":         "frac",
}

var perLayerMetrics = []string{
	"setup.dataset_s", "setup.rf_train_s", "setup.tcn_small_s", "setup.tcn_big_s", "setup.records_s",
	"tcn.big.batch_us_per_window", "tcn.big.serial_us.p50", "tcn.small.serial_us.p50",
	"at.estimate_us.p50", "rf.classify_us.p50", "rf.calls_per_window", "rf.unique_frac",
	"serve.batch_windows.mean", "serve.infer_busy_frac", "serve.submit_us.p50",
	"serve.tick_ms.p50", "serve.tick_self_ms.p50", "loadgen.late_ms.p99",
	"sim.self_us_per_window", "sim.offload_frac", "sim.gated_frac", "sim.fallback_frac",
	"snapshot.encode_us", "snapshot.decode_us", "snapshot.bytes",
	"fleet.build_user_ms", "fleet.sim_user_ms", "fleet.windows_per_user",
	"trace.overhead_frac",
}

// unitOf returns a metric's unit; an unknown name is a bug in the
// benchmark.
func unitOf(name string) string {
	if u, ok := endToEndUnits[name]; ok {
		return u
	}
	if u, ok := perLayerUnits[name]; ok {
		return u
	}
	panic("perfbench: unknown metric " + name)
}

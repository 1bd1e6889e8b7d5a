package main

// decl names a declared metric. BENCHMARK.json lists the same names, units and
// directions; the smoke test holds the two together.
type decl struct {
	name, unit, better string
}

// endToEnd are the metrics of a measured run, printed by every workload.
//
// Two more are printed beside them and not gated. fail_frac travels in the
// result line as "failed" over "attempted": it is 0 on a correct build, and a
// metric that is 0 has no relative bound. p99_us is an informational row: see
// README.md for the spread that demoted it.
var endToEnd = []decl{
	{"ops_per_s", "ops/s", "higher"},
	{"p50_us", "us", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the metrics of a traced run, in layer order. A workload
// reports 0 for the metrics of a layer it bypasses.
var perLayer = []decl{
	// wire: framing and parsing of requests and responses.
	{"wire_codec_ns_per_op", "ns", "lower"},
	{"wire_bytes_per_op", "B", "lower"},
	// server: connections, batching, admission.
	{"server_self_us", "us", "lower"},
	{"syscalls_per_op", "count", "lower"},
	{"read_batch_size", "count", "higher"},
	{"write_batch_size", "count", "higher"},
	{"batch_fallback_frac", "ratio", "lower"},
	{"shed_frac", "ratio", "lower"},
	// kv: routing, the per-shard hash maps, cross-shard commit.
	{"kv_exec_get_ns", "ns", "lower"},
	{"kv_exec_set_ns", "ns", "lower"},
	{"kv_exec_incr_ns", "ns", "lower"},
	{"kv_exec_transfer_ns", "ns", "lower"},
	{"cross_shard_frac", "ratio", "lower"},
	{"kv_heap_bytes_per_user_byte", "ratio", "lower"},
	// engine: the STM itself.
	{"commit_ratio", "ratio", "higher"},
	{"aborts", "count", "lower"},
	{"cm_waits_per_commit", "ratio", "lower"},
	{"ro_fast_commit_frac", "ratio", "higher"},
	{"txn_overhead_update_ns", "ns", "lower"},
	{"txn_overhead_readonly_ns", "ns", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"barriers_dynamic", "count", "lower"},
	{"filter_hit_frac", "ratio", "higher"},
	// wal: the log, group commit, checkpoints, recovery.
	{"wal_bytes_per_user_byte", "ratio", "lower"},
	{"records_per_fsync", "count", "higher"},
	{"fs_write_ms", "ms", "lower"},
	{"fs_sync_ms", "ms", "lower"},
	{"sync_wait_us", "us", "lower"},
	{"checkpoints", "count", "higher"},
	{"checkpoint_ms", "ms", "lower"},
	{"recovery_s", "s", "lower"},
	{"replay_records_per_s", "1/s", "higher"},
	// til: the compiler passes and the interpreter.
	{"barriers_static_naive", "count", "lower"},
	{"barriers_static_full", "count", "lower"},
	{"til_compile_ms", "ms", "lower"},
	{"til_run_ms", "ms", "lower"},
	// the tracing itself.
	{"trace_overhead_frac", "ratio", "lower"},
}

// putLayers reports every per-layer metric, 0 for those not in vals.
func (r *result) putLayers(vals map[string]float64) {
	declared := 0
	for _, d := range perLayer {
		if _, ok := vals[d.name]; ok {
			declared++
		}
		r.put(d.name, vals[d.name], d.unit, 0)
	}
	if declared != len(vals) {
		panic("bench: a per-layer metric was reported that metrics.go does not declare")
	}
}

// ratio is a/b, and 0 where nothing was counted.
func ratio[T uint64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

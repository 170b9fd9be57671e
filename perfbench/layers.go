package main

// layerMetric is one per-layer metric of the traced run, with the
// end-to-end metric it should move and the workload that shows it.
type layerMetric struct {
	name, unit, better string
	moves, on          string
}

// layerMetrics lists every per-layer metric --trace 1 reports. The "hit"
// rows come from the read-mostly inputs, the pipeline stage rows from the
// integrate-cold inputs and the delta/discover rows from the stateful
// inputs, whichever workload runs; the warm-cache ratios come from the
// running workload's own inputs, and the server.* counters, transport
// time and generator lag from its timed window against the daemon.
var layerMetrics = []layerMetric{
	{"server.hit_us", "us", "lower", "p50_ms, p99_ms, max_rate_ops_s", "read-mostly"},
	{"server.hit_allocs", "count", "lower", "p50_ms, p99_ms, max_rate_ops_s", "read-mostly"},
	{"server.translate_us", "us", "lower", "p50_ms, p99_ms, max_rate_ops_s", "read-mostly"},
	{"server.resp_bytes", "bytes", "lower", "p50_ms, p99_ms, max_rate_ops_s", "read-mostly"},
	{"server.self_us.integrate", "us", "lower", "p50_ms, p99_ms, max_rate_ops_s", "read-mostly"},
	{"server.self_us.translate", "us", "lower", "p50_ms, p99_ms, max_rate_ops_s", "read-mostly"},
	{"server.cache_hit_ratio", "ratio", "higher", "failed_frac, p99_ms", "read-mostly"},
	{"server.coalesced", "count", "lower", "failed_frac, p99_ms", "integrate-cold (must stay 0)"},
	{"server.transport_ms", "ms", "lower", "failed_frac, p99_ms", "read-mostly"},
	{"qilabel.builtin_domain_us", "us", "lower", "p50_ms, max_rate_ops_s", "read-mostly"},
	{"qilabel.cachekey_us", "us", "lower", "p50_ms, max_rate_ops_s", "read-mostly"},
	{"qilabel.integrate_ms", "ms", "lower", "throughput_ops_s, p50_ms, peak_rss_mb", "integrate-cold"},
	{"qilabel.integrate_allocs", "count", "lower", "throughput_ops_s, p50_ms, peak_rss_mb", "integrate-cold"},
	{"qilabel.integrate_mb", "MB", "lower", "throughput_ops_s, p50_ms, peak_rss_mb", "integrate-cold"},
	{"qilabel.validate_ms", "ms", "lower", "throughput_ops_s, p50_ms, peak_rss_mb", "integrate-cold"},
	{"match.ms", "ms", "lower", "throughput_ops_s, p99_ms", "integrate-cold"},
	{"match.units", "count", "lower", "throughput_ops_s, p99_ms", "integrate-cold"},
	{"merge.ms", "ms", "lower", "throughput_ops_s, p99_ms", "integrate-cold"},
	{"merge.units", "count", "lower", "throughput_ops_s, p99_ms", "integrate-cold"},
	{"naming.ms", "ms", "lower", "throughput_ops_s, p99_ms", "integrate-cold"},
	{"naming.units", "count", "lower", "throughput_ops_s, p99_ms", "integrate-cold"},
	{"qilabel.warm_hit_ratio", "ratio", "higher", "throughput_ops_s", "integrate-cold, stateful"},
	{"naming.warm_label_hit_ratio", "ratio", "higher", "throughput_ops_s", "integrate-cold, stateful"},
	{"naming.warm_verdict_hit_ratio", "ratio", "higher", "throughput_ops_s", "integrate-cold, stateful"},
	{"naming.warm_solve_hit_ratio", "ratio", "higher", "throughput_ops_s", "integrate-cold, stateful"},
	{"naming.warm_node_hit_ratio", "ratio", "higher", "throughput_ops_s", "integrate-cold, stateful"},
	{"match.warm_key_hit_ratio", "ratio", "higher", "throughput_ops_s", "integrate-cold, stateful"},
	{"match.warm_pair_hit_ratio", "ratio", "higher", "throughput_ops_s", "integrate-cold, stateful"},
	{"qilabel.warm_source_hit_ratio", "ratio", "higher", "throughput_ops_s", "integrate-cold, stateful"},
	{"translate.us", "us", "lower", "p50_ms", "read-mostly"},
	{"delta.add_ms", "ms", "lower", "throughput_ops_s, p50_ms", "stateful"},
	{"delta.update_ms", "ms", "lower", "throughput_ops_s, p50_ms", "stateful"},
	{"delta.remove_ms", "ms", "lower", "throughput_ops_s, p50_ms", "stateful"},
	{"delta.reuse_ratio", "ratio", "higher", "throughput_ops_s, p50_ms", "stateful"},
	{"discover.ingest_ms", "ms", "lower", "p99_ms, failed_frac", "stateful"},
	{"discover.domains", "count", "higher", "p99_ms, failed_frac", "stateful"},
	{"discover.created", "count", "higher", "p99_ms, failed_frac", "stateful"},
	{"discover.merged", "count", "lower", "p99_ms, failed_frac", "stateful"},
	{"trace.overhead_frac", "ratio", "lower", "(none: tracing cost of the replay)", "all"},
	{"gen.lag_ms", "ms", "lower", "(none: diagnostic; a late generator invalidates a run)", "all"},
}

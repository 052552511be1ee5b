package main

// metricDef names one printed metric. The lists below are the benchmark's
// interface: BENCHMARK.json at the repository root lists the same names
// (TestBenchmarkJSONMatches keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are what a user of the tier sees, measured with tracing
// off. error_rate is printed beside them but carried in the summary's
// attempted/failed counts, since a healthy run's rate is exactly zero.
var endToEndMetrics = []metricDef{
	{"rounds_per_s", "1/s", "higher"},
	{"round_p50_ms", "ms", "lower"},
	{"round_tail_ms", "ms", "lower"},
	{"cpu_ms_per_round", "ms", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// layerMetrics are the traced run's per-layer numbers, named layer.metric
// after the package that does the work. A layer a workload does not run
// reads 0 there. Counts are per-round ratios over the timed rounds (the
// report prints each base); timings are medians of spans the benchmark
// records around its calls into the layer; *.self_ms is the layer's mean
// self time per traced round, set beside obs.traced_round_p50_ms.
var layerMetrics = []metricDef{
	// cloud: timed Server.SubmitBatch, a reference cloud.Fold replay
	// (Apply, Hash, and their allocations), and the consensus_* registry
	// counters. Should move rounds_per_s, round_p50_ms and cpu_ms_per_round
	// on direct-256, less on sharded-tcp-256, and cpu_ms_per_round on
	// gossip-32 (33 full-state folds per round).
	{"cloud.submit_us", "us", "lower"},
	{"cloud.fold_apply_us", "us", "lower"},
	{"cloud.fold_hash_us", "us", "lower"},
	{"cloud.fold_allocs_per_round", "count", "lower"},
	{"cloud.barrier_ms", "ms", "lower"},
	{"cloud.rewinds_per_round", "1/round", "lower"},
	{"cloud.degraded_rounds", "count", "lower"},
	{"cloud.digest_rounds", "count", "higher"},
	{"cloud.self_ms", "ms", "lower"},
	// policy: timed FDS.UpdateRatios on the replay state and
	// fds_updates_total. Should move what cloud.fold_apply_us moves.
	{"policy.update_us", "us", "lower"},
	{"policy.updates_per_round", "1/round", "lower"},
	// transport: transport.Instrument counters (traced blocks only) and
	// the benchmark's Conn wrapper on the dials it hands the tier. Should
	// move rounds_per_s, round_p50_ms and cpu_ms_per_round on
	// sharded-tcp-256 and cpu_ms_per_round on gossip-32; zero on
	// direct-256, where the prediction is no change.
	{"transport.bytes_per_round", "B/round", "lower"},
	{"transport.encode_us_per_round", "us/round", "lower"},
	{"transport.decode_us_per_round", "us/round", "lower"},
	{"transport.send_us_per_round", "us/round", "lower"},
	{"transport.self_ms", "ms", "lower"},
	// shard: timed BatchLink.Report and the shard_* counters. Should move
	// round_p50_ms and round_tail_ms on sharded-tcp-256 only.
	{"shard.report_us", "us", "lower"},
	{"shard.round_ms", "ms", "lower"},
	{"shard.forwards_per_round", "1/round", "lower"},
	{"shard.forward_failures", "count", "lower"},
	{"shard.self_ms", "ms", "lower"},
	// gossip: timed Node.LocalRound, the gossip_* counters and the leaders'
	// backlog gauges. Should move round_p50_ms and round_tail_ms on
	// gossip-32 only; drain_ms (heal until the cloud's Latest()
	// reaches the last local round at the heal) is control-plane staleness.
	{"gossip.local_round_us", "us", "lower"},
	{"gossip.peer_sends_per_round", "1/round", "lower"},
	{"gossip.degraded_rounds", "count", "lower"},
	{"gossip.escalation_success", "ratio", "higher"},
	{"gossip.backlog_peak", "rounds", "lower"},
	{"gossip.drain_ms", "ms", "lower"},
	{"gossip.self_ms", "ms", "lower"},
	// durable: timed Store.Append (fsync included) of the workload's round
	// records into a store the benchmark owns, the timed reopen of the
	// restarted member, and the journal-error counters. Should move
	// round_p50_ms and round_tail_ms on gossip-32 (replay moves the tail);
	// absent on the other two workloads.
	{"durable.append_us", "us", "lower"},
	{"durable.record_bytes", "B", "lower"},
	{"durable.replay_ms", "ms", "lower"},
	{"durable.journal_errors", "count", "lower"},
	// edge: timed Distributor calls, per region per round. Should move
	// cpu_ms_per_round and round_p50_ms on gossip-32 only.
	{"edge.distribute_us", "us", "lower"},
	{"edge.uploads_per_round", "1/round", "higher"},
	{"edge.self_ms", "ms", "lower"},
	// obs: the cost of tracing itself (traced against untraced blocks of
	// the same run) and the part of a round no layer explains. Should
	// move nothing.
	{"obs.trace_overhead_pct", "%", "lower"},
	{"obs.unexplained_ms", "ms", "lower"},
	{"obs.traced_round_p50_ms", "ms", "lower"},
}

// unitOf returns the declared unit of a metric name.
func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEndMetrics, layerMetrics} {
		for _, d := range list {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

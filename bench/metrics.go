package main

// metricDef is one named metric of the benchmark. BENCHMARK.json lists the
// same names, units and directions (a test holds them together); later
// issues name metrics exactly as spelled here.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
	// Exact marks a count that must repeat exactly for a fixed seed.
	Exact bool
}

// endToEnd are the metrics a user of the system sees. All lower is better.
// The issue planned 0.10 for job_s and sort_s; the reference host has
// minute-long phases in which everything runs ~10% slower, which no
// iteration count averages out, so ten runs' quartile spread reaches 0.11
// on some workload in most sets of runs (typical: 0.01-0.04). 0.20 is the
// tightest bound that keeps that inside a safe margin.
// (peak_rss_mb was meant to be the fourth; its run-to-run spread on the
// coded workloads is several times any bound worth setting, so it is
// reported per layer instead — see README.md.)
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "job_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "sort_s", Unit: "s", Better: "lower", Bound: 0.20},
}

// perLayer are the single-layer metrics, grouped by the package they
// measure. A metric of a layer the workload does not exercise (service.*
// outside sortd_mix, engine.stage_s.* inside it, where sortd does not
// expose per-rank stages) reads 0.
var perLayer = []metricDef{
	{Name: "kv.gen_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "kv.sort_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "partition.split_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "partition.split_sampled_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "codec.pack_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "codec.encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "codec.decode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "codec.chunk_encode_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "codec.xor_gb_s", Unit: "GB/s", Better: "higher"},
	{Name: "placement.groups", Unit: "count", Better: "lower", Exact: true},
	{Name: "extsort.rungen_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "extsort.merge_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "extsort.spill_amp", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "extsort.ovc_decided", Unit: "count", Better: "higher", Exact: true},
	{Name: "transport.memnet_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "transport.tcpnet_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "transport.netem_err", Unit: "ratio", Better: "lower"},
	{Name: "engine.stage_s.CodeGen", Unit: "s", Better: "lower"},
	{Name: "engine.stage_s.Map", Unit: "s", Better: "lower"},
	{Name: "engine.stage_s.PackEncode", Unit: "s", Better: "lower"},
	{Name: "engine.stage_s.Shuffle", Unit: "s", Better: "lower"},
	{Name: "engine.stage_s.UnpackDecode", Unit: "s", Better: "lower"},
	{Name: "engine.stage_s.Reduce", Unit: "s", Better: "lower"},
	{Name: "engine.stage_cpu_s.CodeGen", Unit: "s", Better: "lower"},
	{Name: "engine.stage_cpu_s.Map", Unit: "s", Better: "lower"},
	{Name: "engine.stage_cpu_s.PackEncode", Unit: "s", Better: "lower"},
	{Name: "engine.stage_cpu_s.Shuffle", Unit: "s", Better: "lower"},
	{Name: "engine.stage_cpu_s.UnpackDecode", Unit: "s", Better: "lower"},
	{Name: "engine.stage_cpu_s.Reduce", Unit: "s", Better: "lower"},
	{Name: "engine.barrier_wait_s", Unit: "s", Better: "lower"},
	{Name: "cluster.place_s", Unit: "s", Better: "lower"},
	{Name: "cluster.verify_s", Unit: "s", Better: "lower"},
	{Name: "cluster.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.shuffle_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "cluster.wire_bytes", Unit: "B", Better: "lower", Exact: true},
	{Name: "cluster.chunks", Unit: "count", Better: "lower", Exact: true},
	// Not exact: with a parallel shuffle, run boundaries depend on the order
	// in which the senders' chunks arrive (63 or 64 runs on uncoded_spill).
	{Name: "cluster.spilled_runs", Unit: "count", Better: "lower"},
	{Name: "cluster.attempts", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.leaks", Unit: "count", Better: "lower"},
	{Name: "verify.describe_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "verify.check_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "model.shuffle_bytes_pred", Unit: "B", Better: "lower", Exact: true},
	{Name: "model.cap_speedup_pred", Unit: "ratio", Better: "higher"},
	{Name: "service.queue_wait_s", Unit: "s", Better: "lower"},
	{Name: "service.run_s", Unit: "s", Better: "lower"},
	{Name: "service.http_overhead_s", Unit: "s", Better: "lower"},
	{Name: "service.jobs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "service.rejected", Unit: "count", Better: "lower", Exact: true},
	{Name: "trace_overhead", Unit: "ratio", Better: "lower"},
	// ru_maxrss of the measuring process when the untraced loop ends.
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

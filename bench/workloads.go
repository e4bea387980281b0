package main

import (
	"codedterasort/internal/cluster"
	"codedterasort/internal/kv"
)

// ranks is K, the worker count of every workload. The ranks are goroutines
// of the system under test inside the one benchmark process.
const ranks = 4

// capMbps is the egress cap of the *_cap workloads: the scaled equivalent
// of the paper's 100 Mbps tc limit at which Shuffle is ~90% of sort_s.
const capMbps = 400

// config is what one benchmark process is told: the seed and size its
// inputs are made from, and where its files go.
type config struct {
	seed   uint64
	rows   int64
	outDir string
}

// kind selects how a workload's jobs are submitted.
type kind int

const (
	// kindLocal calls cluster.RunLocalOpts: ranks over the in-memory mesh.
	kindLocal kind = iota
	// kindTCP runs a cluster.Coordinator and K cluster.RunWorker
	// goroutines over TCP loopback.
	kindTCP
	// kindSortd submits through service.Client to an in-process sortd
	// behind httptest, two closed-loop clients at a time.
	kindSortd
)

// workload is one row of the benchmark: a fixed job shape, how many timed
// iterations the full run takes, and why the shape was chosen.
type workload struct {
	Name string
	// Shape is the one-line spec summary printed and stored beside results.
	Shape string
	// Why is the reason the workload exists (BENCHMARK.json carries it).
	Why string
	// Iters is the timed iteration count of the full run (cycles for
	// sortd_mix, where every cycle yields one sample per client).
	Iters int
	kind  kind
	// specs builds the workload's jobs: one for kindLocal and kindTCP, the
	// four jobs of a client cycle for kindSortd. spillDir is the
	// workload's private spill directory.
	specs func(c config, spillDir string) []cluster.Spec
}

// sortdClients is the closed-loop client count of sortd_mix: at most nproc
// on the 2-core reference host.
const sortdClients = 2

// base is the shape every workload starts from.
func base(c config, alg cluster.Algorithm) cluster.Spec {
	s := cluster.Spec{Algorithm: alg, K: ranks, Rows: c.rows, Seed: c.seed, Parallelism: 1}
	if alg == cluster.AlgCoded {
		s.R = 2
	}
	return s
}

// spillBudget is 1/8 of one rank's share of the input.
func spillBudget(rows int64) int64 { return rows * kv.RecordSize / ranks / 8 }

func one(build func(c config, spillDir string) cluster.Spec) func(config, string) []cluster.Spec {
	return func(c config, spillDir string) []cluster.Spec { return []cluster.Spec{build(c, spillDir)} }
}

// workloads is the benchmark's fixed list; BENCHMARK.json names the same
// workloads in the same order (a test holds them together).
var workloads = []workload{
	{
		Name:  "uncoded_mem",
		Shape: "TeraSort K=4, memnet, uncapped, monolithic serial schedule",
		Why:   "Compute-bound baseline: sort_s is kv sort + scatter + pack, network and codec idle; job_s - sort_s (placement + verification) is largest here.",
		Iters: 30, kind: kindLocal,
		specs: one(func(c config, _ string) cluster.Spec { return base(c, cluster.AlgTeraSort) }),
	},
	{
		Name:  "coded_mem",
		Shape: "CodedTeraSort K=4 r=2 clique, memnet, uncapped, monolithic",
		Why:   "Same input, free network: CodeGen, the r-fold Map and codec encode/decode do the work, so codec or Map gains show and network gains predict no change.",
		Iters: 20, kind: kindLocal,
		specs: one(func(c config, _ string) cluster.Spec { return base(c, cluster.AlgCoded) }),
	},
	{
		Name:  "uncoded_cap",
		Shape: "uncoded_mem + 400 Mbps egress cap per rank",
		Why:   "The paper's regime: Shuffle is ~90% of sort_s, so kernel optimisations predict no change and transport or schedule changes show.",
		Iters: 8, kind: kindLocal,
		specs: one(func(c config, _ string) cluster.Spec {
			s := base(c, cluster.AlgTeraSort)
			s.RateMbps = capMbps
			return s
		}),
	},
	{
		Name:  "coded_cap",
		Shape: "coded_mem + 400 Mbps egress cap per rank",
		Why:   "The paper's headline pair with uncoded_cap: cap_speedup = sort_s(uncoded_cap)/sort_s(coded_cap), beside the bytes the model predicts.",
		Iters: 10, kind: kindLocal,
		specs: one(func(c config, _ string) cluster.Spec {
			s := base(c, cluster.AlgCoded)
			s.RateMbps = capMbps
			return s
		}),
	},
	{
		Name:  "uncoded_spill",
		Shape: "TeraSort K=4, parallel shuffle, MemBudget = 1/8 of a rank's share, spill under the benchmark's out dir",
		Why:   "Only workload where extsort works: run generation, spill writes, merge reads, OVC compares; also the low-memory point of peak_rss_mb.",
		Iters: 15, kind: kindLocal,
		specs: one(func(c config, spillDir string) cluster.Spec {
			s := base(c, cluster.AlgTeraSort)
			s.ParallelShuffle = true
			s.MemBudget = spillBudget(c.rows)
			s.SpillDir = spillDir
			return s
		}),
	},
	{
		Name:  "coded_stream_tcp",
		Shape: "CodedTeraSort K=4 r=2, parallel shuffle, ChunkRows 4096, Window 8, Coordinator + 4 RunWorker goroutines over TCP loopback",
		Why:   "Uses codec, transport and engine unlike coded_mem: chunk framing, windowed streams with acks, tcpnet, overlapped stages; a monolithic-path gain that costs streaming shows here.",
		Iters: 30, kind: kindTCP,
		specs: one(func(c config, _ string) cluster.Spec {
			s := base(c, cluster.AlgCoded)
			s.ParallelShuffle = true
			s.ChunkRows = 4096
			s.Window = 8
			return s
		}),
	},
	{
		Name:  "sortd_mix",
		Shape: "in-process sortd (PoolSlots 8) behind httptest; 2 closed-loop clients, two tenants, each cycling four rows/5 jobs: uncoded mem, coded mem, uncoded spill (1/8 budget), coded zipf + sampled partitioning",
		Why:   "Service layer (HTTP/JSON, admission, queue, pool lease, spill namespace, long-poll) has its largest share with small jobs under contention; one sample is one client's four-job cycle.",
		Iters: 40, kind: kindSortd,
		specs: func(c config, _ string) []cluster.Spec {
			small := c
			small.rows = c.rows / 5
			spill := base(small, cluster.AlgTeraSort)
			spill.MemBudget = spillBudget(small.rows)
			zipf := base(small, cluster.AlgCoded)
			zipf.DistName = "zipf"
			zipf.Partitioning = "sample"
			return []cluster.Spec{
				base(small, cluster.AlgTeraSort),
				base(small, cluster.AlgCoded),
				spill,
				zipf,
			}
		},
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

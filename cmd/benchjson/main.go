// Command benchjson runs the pipeline benchmark workloads — the schedule
// progression of both engines (serial, chunked-streaming, out-of-core) —
// and writes a machine-readable JSON summary (ns/op, bytes shuffled, peak
// live heap, spilled runs) so the performance trajectory is tracked across
// PRs instead of living only in scrollback.
//
// Usage:
//
//	benchjson -out BENCH_pipeline.json
//	benchjson -rows 500000 -benchtime 2s
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"codedterasort/internal/cluster"
	"codedterasort/internal/codec"
	"codedterasort/internal/coded"
	"codedterasort/internal/combin"
	"codedterasort/internal/extsort"
	"codedterasort/internal/kv"
	"codedterasort/internal/mapreduce"
	"codedterasort/internal/parallel"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
	"codedterasort/internal/simnet"
)

// benchResult is one workload's measurement.
type benchResult struct {
	Name           string  `json:"name"`
	Iterations     int     `json:"iterations"`
	NsPerOp        float64 `json:"ns_per_op"`
	MBPerSec       float64 `json:"mb_per_sec"`
	Rows           int64   `json:"rows"`
	BytesShuffled  int64   `json:"bytes_shuffled"`
	ChunksShuffled int64   `json:"chunks_shuffled,omitempty"`
	SpilledRuns    int64   `json:"spilled_runs,omitempty"`
	// Spilled bytes before framing/truncation vs framed on disk: the gap is
	// the compact spill format's saving at the job level.
	SpilledRawBytes  int64  `json:"spilled_raw_bytes,omitempty"`
	SpilledDiskBytes int64  `json:"spilled_disk_bytes,omitempty"`
	PeakHeapBytes    uint64 `json:"peak_heap_bytes"`
}

// microResult is one worker-kernel measurement: a compute hot path (sort,
// scatter, generate, chunk encode/decode, XOR) at a fixed goroutine count.
type microResult struct {
	Name     string  `json:"name"`
	Procs    int     `json:"procs,omitempty"`
	NsPerOp  float64 `json:"ns_per_op"`
	MBPerSec float64 `json:"mb_per_sec"`
	// Speedup is the ratio against the kernel's baseline entry: the p=1
	// run for parallel kernels, the byte-loop reference for xor/word.
	Speedup float64 `json:"speedup,omitempty"`
}

// extsortResult is one external-sort microbenchmark: a budget-bounded
// Sorter spills runs over rows generated records, then the drain (the
// loser-tree merge of every run) is timed on its own. The comparison
// counters record how the merge decided its matches — by cached
// offset-value codes alone, or by falling through to key bytes — and the
// raw-vs-disk spill bytes record what the compact run format saved.
type extsortResult struct {
	Name         string  `json:"name"`
	Rows         int64   `json:"rows"`
	SpilledRuns  int64   `json:"spilled_runs"`
	MergeNsPerOp float64 `json:"merge_ns_per_op"`
	MBPerSec     float64 `json:"mb_per_sec"`
	// ComparesPerNext is total merge comparisons (OVC-decided + full)
	// divided by records emitted; OVCDecidedFraction is the share the codes
	// resolved without touching key bytes.
	ComparesPerNext    float64 `json:"compares_per_next"`
	OVCDecidedFraction float64 `json:"ovc_decided_fraction"`
	SpilledRawBytes    int64   `json:"spilled_raw_bytes"`
	SpilledDiskBytes   int64   `json:"spilled_disk_bytes"`
	// SpillSavings is 1 - disk/raw: the fraction of record bytes the
	// prefix-truncated frames kept off disk.
	SpillSavings float64 `json:"spill_savings"`
}

// hostInfo records the machine the numbers came from, so
// BENCH_pipeline.json files from 1-CPU CI containers are distinguishable
// from real multicore runs (a 1-CPU host records parallel speedups of ~1x
// by construction).
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

// currentHost describes the running machine.
func currentHost() hostInfo {
	return hostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
}

// stragglerResult is one engine's completion time with and without an
// injected straggler (one rank's egress slowed by Factor under rate
// shaping) — the live counterpart of the paper-scale simnet straggler
// tables. Coding moves ~r times fewer shuffle bytes, so the same slow
// NIC costs the coded engine less absolute time: DeltaNs(coded) <
// DeltaNs(terasort) is the coded-resilience claim this section records.
type stragglerResult struct {
	Name        string  `json:"name"`
	Factor      float64 `json:"factor"`
	HealthyNs   float64 `json:"healthy_ns_per_op"`
	StraggledNs float64 `json:"straggled_ns_per_op"`
	DeltaNs     float64 `json:"delta_ns"`
	Ratio       float64 `json:"ratio"`
}

// recoveryResult is one engine's completion time for a job that loses a
// worker mid-Map and recovers by supervised re-execution (attempt-scoped
// respawn), versus its healthy time.
type recoveryResult struct {
	Name        string  `json:"name"`
	Attempts    int     `json:"attempts"`
	HealthyNs   float64 `json:"healthy_ns_per_op"`
	RecoveredNs float64 `json:"recovered_ns_per_op"`
}

// mapreduceResult is one MapReduce kernel's communication-load
// measurement: the bytes its intermediate data costs to shuffle uncoded
// versus coded at the same (K, R, rows). Loads are deterministic functions
// of the job (not timings), so one run per engine suffices; the section
// tracks the per-kernel gain the framework inherits from the coded
// shuffle.
type mapreduceResult struct {
	Kernel       string  `json:"kernel"`
	K            int     `json:"k"`
	R            int     `json:"r"`
	Rows         int64   `json:"rows"`
	ReducedRows  int64   `json:"reduced_rows"`
	UncodedBytes int64   `json:"uncoded_shuffle_bytes"`
	CodedBytes   int64   `json:"coded_shuffle_bytes"`
	Gain         float64 `json:"gain"`
}

// placementResult is one K of the clique-vs-resolvable placement
// comparison: the structural counts (multicast groups, subfiles) of both
// strategies at the same (K, r) plus the simulated full-scale shuffle
// bytes and wall time. All values are deterministic functions of (K, r)
// and the cost model — no timing noise — so the section doubles as a
// regression gate on the resolvable construction itself.
type placementResult struct {
	K                int     `json:"k"`
	R                int     `json:"r"`
	CliqueGroups     int64   `json:"clique_groups"`
	CliqueFiles      int     `json:"clique_files"`
	CliqueBytes      float64 `json:"clique_shuffle_bytes"`
	CliqueSec        float64 `json:"clique_total_sec"`
	ResolvableGroups int64   `json:"resolvable_groups"`
	ResolvableFiles  int     `json:"resolvable_files"`
	ResolvableBytes  float64 `json:"resolvable_shuffle_bytes"`
	ResolvableSec    float64 `json:"resolvable_total_sec"`
	// GroupGain is clique groups / resolvable groups, the CodeGen-scaling
	// win the resolvable design buys.
	GroupGain float64 `json:"group_gain"`
}

// partitionResult is one input distribution of the partitioning-policy
// comparison: a real K=8 TeraSort run per policy, with reducer load
// imbalance (max worker output rows over mean) under the uniform
// key-range partitioner vs splitters from the deterministic sampling
// round, plus what the round cost on the wire. Loads are deterministic
// functions of the spec, so one run per policy suffices; the compare gate
// requires sampled partitioning to keep the zipf input balanced where
// uniform cannot.
type partitionResult struct {
	Dist             string  `json:"dist"`
	K                int     `json:"k"`
	Rows             int64   `json:"rows"`
	UniformImbalance float64 `json:"uniform_imbalance"`
	SampledImbalance float64 `json:"sampled_imbalance"`
	SampleRoundBytes int64   `json:"sample_round_bytes"`
}

// benchFile is the BENCH_pipeline.json document.
type benchFile struct {
	Host    hostInfo      `json:"host"`
	Rows    int64         `json:"rows"`
	Results []benchResult `json:"results"`
	// Micro tracks the multicore worker kernels, so per-PR perf work on
	// the hot paths is visible without running a whole cluster.
	Micro []microResult `json:"micro"`
	// Straggler and Recovery track the fault-resilience trajectory: how
	// much a 4x egress straggler and a recovered mid-Map death cost each
	// engine.
	Straggler []stragglerResult `json:"straggler"`
	Recovery  []recoveryResult  `json:"recovery"`
	// Mapreduce tracks the per-kernel shuffle loads of the MapReduce
	// framework's built-in kernels, uncoded vs coded.
	Mapreduce []mapreduceResult `json:"mapreduce"`
	// Extsort tracks the external-sort merge path in isolation: merge
	// ns/op, comparisons per emitted record (with the offset-value-coding
	// share), and the compact spill format's raw-vs-disk byte gap.
	Extsort []extsortResult `json:"extsort"`
	// Placement tracks the clique-vs-resolvable structural comparison at
	// growing K; the compare gate requires resolvable to beat clique's
	// group count at the sweep's largest K.
	Placement []placementResult `json:"placement"`
	// Partition tracks reducer imbalance under uniform vs sampled
	// partitioning per skewed input distribution; the compare gate
	// requires sampled partitioning to hold the zipf input's imbalance
	// under the balance ceiling uniform partitioning blows through.
	Partition []partitionResult `json:"partition"`
}

func main() {
	out := flag.String("out", "BENCH_pipeline.json", "output JSON path")
	rows := flag.Int64("rows", 200000, "input size in records per workload")
	benchtime := flag.Duration("benchtime", time.Second, "minimum measuring time per workload")
	compare := flag.String("compare", "",
		"baseline JSON to diff the fresh results against: ns/op ratios are advisory, but a workload shuffling or spilling (on disk) more than 2x its baseline's bytes fails the run, as does a document missing the extsort section")
	flag.Parse()

	if err := run(*out, *rows, *benchtime); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *compare != "" {
		fmt.Printf("\ncomparing %s against baseline %s\n", *out, *compare)
		regressions, err := compareFiles(*out, *compare, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: regression in %v\n", regressions)
			os.Exit(1)
		}
	}
}

// workloads returns the tracked pipeline configurations: each engine under
// the paper's serial schedule, the chunked streaming pipeline, and the
// out-of-core external sort (budget sized to force spilling at any -rows).
func workloads(rows int64, spillDir string) []struct {
	name string
	spec cluster.Spec
} {
	budget := rows * kv.RecordSize / 16
	if budget < 1<<16 {
		budget = 1 << 16
	}
	return []struct {
		name string
		spec cluster.Spec
	}{
		{"terasort/serial", cluster.Spec{
			Algorithm: cluster.AlgTeraSort, K: 4, Rows: rows, Seed: 11}},
		{"terasort/chunked", cluster.Spec{
			Algorithm: cluster.AlgTeraSort, K: 4, Rows: rows, Seed: 11,
			ParallelShuffle: true, ChunkRows: 2000, Window: 8}},
		{"terasort/extsort", cluster.Spec{
			Algorithm: cluster.AlgTeraSort, K: 4, Rows: rows, Seed: 11,
			ParallelShuffle: true, MemBudget: budget, SpillDir: spillDir}},
		{"coded/serial", cluster.Spec{
			Algorithm: cluster.AlgCoded, K: 4, R: 2, Rows: rows, Seed: 11}},
		{"coded/chunked", cluster.Spec{
			Algorithm: cluster.AlgCoded, K: 4, R: 2, Rows: rows, Seed: 11,
			ParallelShuffle: true, ChunkRows: 800, Window: 8}},
		{"coded/extsort", cluster.Spec{
			Algorithm: cluster.AlgCoded, K: 4, R: 2, Rows: rows, Seed: 11,
			ParallelShuffle: true, MemBudget: budget, SpillDir: spillDir}},
		// The multicore worker runtime: the chunked pipelines again with
		// each worker's compute paths on 4 goroutines.
		{"terasort/chunked/procs=4", cluster.Spec{
			Algorithm: cluster.AlgTeraSort, K: 4, Rows: rows, Seed: 11,
			ParallelShuffle: true, ChunkRows: 2000, Window: 8, Parallelism: 4}},
		{"coded/chunked/procs=4", cluster.Spec{
			Algorithm: cluster.AlgCoded, K: 4, R: 2, Rows: rows, Seed: 11,
			ParallelShuffle: true, ChunkRows: 800, Window: 8, Parallelism: 4}},
	}
}

// microKernels returns the tracked worker kernels, each measured at every
// procs value: the sort kernel (in place, under both legacy row names), the
// Map scatter, parallel generation, and the chunked Algorithm 1/2
// encode/decode. prep (optional) runs untimed before each op to restore
// clobbered inputs.
func microKernels(rows int64) ([]struct {
	name  string
	bytes int64
	prep  func()
	op    func(procs int) error
}, error) {
	base := kv.NewGenerator(1, kv.DistUniform).Generate(0, rows)
	sortWork := base.Clone()
	restore := func() { copy(sortWork.Bytes(), base.Bytes()) }
	part := partition.NewUniform(8)

	// Chunked coded packets: the K=5, r=2 group of the paper's Fig 6/7
	// walkthrough, scaled to ~rows records across the plan.
	plan, err := placement.Redundant(5, 2, rows)
	if err != nil {
		return nil, err
	}
	p5 := partition.NewUniform(5)
	stores := make([]codec.IVMap, 2)
	for rank := range stores {
		stores[rank] = coded.MapFiles(plan, p5, kv.NewGenerator(6, kv.DistUniform), rank)
	}
	group := combin.NewSet(0, 1, 2)
	const chunkRows = 256
	count := codec.PacketChunkCount(stores[0], group, 0, chunkRows)
	pkts := make([][]byte, count)
	var codedBytes int64
	for c := 0; c < count; c++ {
		pkt, err := codec.EncodePacketChunk(stores[0], group, 0, chunkRows, c)
		if err != nil {
			return nil, err
		}
		pkts[c] = pkt
		codedBytes += int64(len(pkt))
	}

	return []struct {
		name  string
		bytes int64
		prep  func()
		op    func(procs int) error
	}{
		// Two row names (-compare reads BENCH_pipeline.json by them), one
		// kernel: the in-place entry point of kv.Order.
		{"sort_radix_lsd", int64(base.Size()), restore, func(p int) error { sortWork.SortRadixMSD(p); return nil }},
		{"sort_radix_msd", int64(base.Size()), restore, func(p int) error { sortWork.SortRadixMSD(p); return nil }},
		{"scatter", int64(base.Size()), nil, func(p int) error { partition.SplitParallel(part, base, p); return nil }},
		{"generate", int64(base.Size()), nil, func(p int) error {
			kv.NewGenerator(1, kv.DistUniform).GenerateParallel(0, rows, p)
			return nil
		}},
		{"chunk_encode", codedBytes, nil, func(p int) error {
			return parallel.Do(p, count, func(c int) error {
				pkt, err := codec.EncodePacketChunk(stores[0], group, 0, chunkRows, c)
				codec.Recycle(pkt)
				return err
			})
		}},
		{"chunk_decode", codedBytes, nil, func(p int) error {
			return parallel.Do(p, count, func(c int) error {
				_, err := codec.DecodePacketChunk(stores[1], group, 1, 0, chunkRows, c, pkts[c])
				return err
			})
		}},
	}, nil
}

// measureMicro times op (with prep untimed between iterations) for at
// least benchtime and returns the kernel measurement. A failing op aborts
// the run rather than recording a bogus baseline.
func measureMicro(name string, procs int, bytes int64, prep func(), op func(int) error, benchtime time.Duration) (microResult, error) {
	var total time.Duration
	iters := 0
	for total < benchtime || iters == 0 {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		err := op(procs)
		total += time.Since(t0)
		if err != nil {
			return microResult{}, fmt.Errorf("micro %s p=%d: %w", name, procs, err)
		}
		iters++
	}
	nsPerOp := float64(total.Nanoseconds()) / float64(iters)
	return microResult{
		Name:     name,
		Procs:    procs,
		NsPerOp:  nsPerOp,
		MBPerSec: float64(bytes) / 1e6 / (nsPerOp / 1e9),
	}, nil
}

// runMicro measures every kernel at p=1, p=4 and p=NumCPU (deduplicated)
// plus the word-vs-byte XOR pair, filling Speedup against each kernel's
// baseline entry.
func runMicro(rows int64, benchtime time.Duration) ([]microResult, error) {
	kernels, err := microKernels(rows)
	if err != nil {
		return nil, err
	}
	procsSet := []int{1, 4}
	if n := runtime.NumCPU(); n != 1 && n != 4 {
		procsSet = append(procsSet, n)
	}
	var out []microResult
	for _, k := range kernels {
		baseline := 0.0
		for _, procs := range procsSet {
			res, err := measureMicro(k.name, procs, k.bytes, k.prep, k.op, benchtime)
			if err != nil {
				return nil, err
			}
			if procs == 1 {
				baseline = res.NsPerOp
			} else if baseline > 0 {
				res.Speedup = baseline / res.NsPerOp
			}
			out = append(out, res)
		}
	}
	// XOR: the word-wise kernel against the byte-loop reference.
	const xorLen = 1 << 16
	dst, src := make([]byte, xorLen), make([]byte, xorLen)
	for i := range src {
		src[i] = byte(i)
	}
	byteRef, err := measureMicro("xor/byte", 0, xorLen, nil, func(int) error {
		for i := range dst {
			dst[i] ^= src[i]
		}
		return nil
	}, benchtime)
	if err != nil {
		return nil, err
	}
	word, err := measureMicro("xor/word", 0, xorLen, nil, func(int) error {
		codec.XORInto(dst, src)
		return nil
	}, benchtime)
	if err != nil {
		return nil, err
	}
	word.Speedup = byteRef.NsPerOp / word.NsPerOp
	return append(out, byteRef, word), nil
}

// stragglerSpecs returns the engine pair of the straggler benchmark:
// rate-shaped serial-schedule jobs, so one slowed rank stretches the
// shuffle by its egress share exactly as in the paper's schedules.
func stragglerSpecs(rows int64) map[string]cluster.Spec {
	return map[string]cluster.Spec{
		"terasort": {Algorithm: cluster.AlgTeraSort, K: 4, Rows: rows, Seed: 11, RateMbps: 800},
		"coded":    {Algorithm: cluster.AlgCoded, K: 4, R: 2, Rows: rows, Seed: 11, RateMbps: 800},
	}
}

// stragglerFactor is the injected egress slow-down (the acceptance
// scenario's 4x straggler).
const stragglerFactor = 4

// runStraggler measures both engines healthy and with one rank's egress
// slowed by stragglerFactor.
func runStraggler(rows int64, benchtime time.Duration) ([]stragglerResult, error) {
	var out []stragglerResult
	for _, name := range []string{"terasort", "coded"} {
		spec := stragglerSpecs(rows)[name]
		healthy, _, err := measure(name+"/healthy", spec, benchtime)
		if err != nil {
			return nil, err
		}
		spec.StragglerFactor = stragglerFactor
		spec.StragglerRank = 1
		straggled, _, err := measure(name+"/straggled", spec, benchtime)
		if err != nil {
			return nil, err
		}
		out = append(out, stragglerResult{
			Name:        name,
			Factor:      stragglerFactor,
			HealthyNs:   healthy.NsPerOp,
			StraggledNs: straggled.NsPerOp,
			DeltaNs:     straggled.NsPerOp - healthy.NsPerOp,
			Ratio:       straggled.NsPerOp / healthy.NsPerOp,
		})
	}
	return out, nil
}

// runRecovery measures both engines recovering from a worker death
// injected mid-Map (supervised re-execution, two attempts).
func runRecovery(rows int64, benchtime time.Duration) ([]recoveryResult, error) {
	var out []recoveryResult
	for _, name := range []string{"terasort", "coded"} {
		spec := stragglerSpecs(rows)[name]
		spec.RateMbps = 0 // recovery cost, not wire time
		healthy, _, err := measure(name+"/healthy", spec, benchtime)
		if err != nil {
			return nil, err
		}
		spec.Faults = []cluster.FaultSpec{{Rank: 1, Stage: "Map", Kind: "kill"}}
		spec.StageDeadline = 30 * time.Second // crash detection is immediate; the deadline only backstops
		spec.MaxAttempts = 2
		recovered, job, err := measure(name+"/recovered", spec, benchtime)
		if err != nil {
			return nil, err
		}
		out = append(out, recoveryResult{
			Name:        name,
			Attempts:    job.Attempts,
			HealthyNs:   healthy.NsPerOp,
			RecoveredNs: recovered.NsPerOp,
		})
	}
	return out, nil
}

// runExtsort measures the external-sort merge path in isolation, once per
// key distribution: a Sorter under a budget of 1/16 of the input spills
// ~16 sorted runs; the drain — the offset-value-coded loser-tree merge of
// every run plus the in-memory tail — is what each timed op runs. Append
// and spill time is excluded (it is the radix sort, tracked by the micro
// section), so the number isolates merge-path work. Spill bytes and the
// comparison split are deterministic per spec; they come from the last
// iteration.
func runExtsort(rows int64, spillDir string, benchtime time.Duration) ([]extsortResult, error) {
	budget := rows * kv.RecordSize / 16
	if budget < 1<<16 {
		budget = 1 << 16
	}
	var out []extsortResult
	for _, c := range []struct {
		name      string
		dist      kv.Distribution
		dupDomain int64
	}{
		// Uniform random 10-byte keys are near-incompressible at these run
		// lengths (adjacent sorted keys share <1 prefix byte on average), so
		// this entry tracks the per-block v1 fallback holding disk bytes at
		// raw-plus-framing. The duplicate-heavy entry is where the
		// prefix-truncated frames pay.
		{"merge/uniform", kv.DistUniform, 0},
		{"merge/skewed", kv.DistSkewed, 0},
		{"merge/dupkeys", kv.DistUniform, 4096},
	} {
		input := kv.NewGenerator(11, c.dist).Generate(0, rows)
		if c.dupDomain > 0 {
			quantizeKeys(input, c.dupDomain)
		}
		// Append in sub-budget batches so the sorter spills ~16 runs (a
		// whole-input append would buffer then spill a single run, leaving
		// the merge nothing to do); this mirrors the engines, which feed the
		// sorter shuffle chunk by shuffle chunk.
		batch := 1000
		var last extsort.Output
		var total time.Duration
		iters := 0
		for total < benchtime || iters == 0 {
			s, err := extsort.NewSorter(spillDir, budget)
			if err != nil {
				return nil, err
			}
			for i := 0; i < input.Len(); i += batch {
				end := i + batch
				if end > input.Len() {
					end = input.Len()
				}
				if err := s.Append(input.Slice(i, end)); err != nil {
					s.Close()
					return nil, fmt.Errorf("extsort %s: %w", c.name, err)
				}
			}
			t0 := time.Now()
			last, err = extsort.DrainSorted(s, s.BlockRows(), func(kv.Records) error { return nil })
			total += time.Since(t0)
			s.Close()
			if err != nil {
				return nil, fmt.Errorf("extsort %s: %w", c.name, err)
			}
			iters++
		}
		nsPerOp := float64(total.Nanoseconds()) / float64(iters)
		compares := last.OVCDecided + last.FullCompares
		res := extsortResult{
			Name:             c.name,
			Rows:             rows,
			SpilledRuns:      last.SpilledRuns,
			MergeNsPerOp:     nsPerOp,
			MBPerSec:         float64(rows*kv.RecordSize) / 1e6 / (nsPerOp / 1e9),
			SpilledRawBytes:  last.SpilledRawBytes,
			SpilledDiskBytes: last.SpilledDiskBytes,
		}
		if last.Rows > 0 {
			res.ComparesPerNext = float64(compares) / float64(last.Rows)
		}
		if compares > 0 {
			res.OVCDecidedFraction = float64(last.OVCDecided) / float64(compares)
		}
		if last.SpilledRawBytes > 0 {
			res.SpillSavings = 1 - float64(last.SpilledDiskBytes)/float64(last.SpilledRawBytes)
		}
		out = append(out, res)
	}
	return out, nil
}

// quantizeKeys rewrites every key to one of domain distinct values (a
// deterministic function of the row index), modeling duplicate-heavy sort
// inputs: long stretches of equal and near-equal keys after sorting, where
// prefix truncation and the OVC tie path both get exercised.
func quantizeKeys(recs kv.Records, domain int64) {
	buf := recs.Bytes()
	for i := 0; i < recs.Len(); i++ {
		key := buf[i*kv.RecordSize : i*kv.RecordSize+kv.KeySize]
		key[0], key[1] = 0, 0
		binary.BigEndian.PutUint64(key[2:], uint64(int64(i)*2654435761%domain))
	}
}

// runMapReduce records every built-in kernel's shuffle load uncoded and
// coded at K=4, R=2 over a quarter of the pipeline row count (the text
// kernels expand each input record into several intermediate ones).
func runMapReduce(rows int64) ([]mapreduceResult, error) {
	const k, r = 4, 2
	mrRows := rows / 4
	if mrRows < 1000 {
		mrRows = 1000
	}
	var out []mapreduceResult
	for _, kern := range mapreduce.Kernels() {
		plainRep, err := mapreduce.RunLocal(kern.Job(k, 1, mrRows, 11))
		if err != nil {
			return nil, fmt.Errorf("mapreduce %s uncoded: %w", kern.Name, err)
		}
		codedRep, err := mapreduce.RunLocal(kern.Job(k, r, mrRows, 11))
		if err != nil {
			return nil, fmt.Errorf("mapreduce %s coded: %w", kern.Name, err)
		}
		out = append(out, mapreduceResult{
			Kernel: kern.Name, K: k, R: r, Rows: mrRows,
			ReducedRows:  mapreduce.ReducedRows(codedRep),
			UncodedBytes: plainRep.ShuffleLoadBytes,
			CodedBytes:   codedRep.ShuffleLoadBytes,
			Gain:         float64(plainRep.ShuffleLoadBytes) / float64(codedRep.ShuffleLoadBytes),
		})
	}
	return out, nil
}

// runPlacement computes the clique-vs-resolvable comparison at r=2 over
// doubling K up to 64 via the paper-scale simulator. Everything here is
// deterministic — structural counts from the placement strategies, bytes
// and seconds from the cost model — so the section needs no benchtime.
func runPlacement() ([]placementResult, error) {
	pts, err := simnet.SweepPlacement(2, []int{4, 8, 16, 32, 64}, simnet.Default())
	if err != nil {
		return nil, err
	}
	out := make([]placementResult, 0, len(pts))
	for _, p := range pts {
		out = append(out, placementResult{
			K: p.K, R: p.R,
			CliqueGroups: p.CliqueGroups, CliqueFiles: p.CliqueFiles,
			CliqueBytes: p.CliqueGB * 1e9, CliqueSec: p.CliqueTotalSec,
			ResolvableGroups: p.ResolvableGroups, ResolvableFiles: p.ResolvableFiles,
			ResolvableBytes: p.ResolvableGB * 1e9, ResolvableSec: p.ResolvableTotalSec,
			GroupGain: float64(p.CliqueGroups) / float64(p.ResolvableGroups),
		})
	}
	return out, nil
}

// runPartition measures the partitioning-policy comparison: for each
// skewed distribution, one real K=8 TeraSort job per policy, imbalance
// computed from the workers' reported output rows. The sampled runs
// exercise the engines' full sampling round (gather, splitter selection,
// broadcast), so SampleRoundBytes is the measured wire cost, not a model.
func runPartition(rows int64) ([]partitionResult, error) {
	const k = 8
	pRows := rows / 4
	if pRows < 1<<14 {
		pRows = 1 << 14
	}
	var out []partitionResult
	for _, d := range kv.SkewedDistributions {
		spec := cluster.Spec{
			Algorithm: cluster.AlgTeraSort, K: k, Rows: pRows, Seed: 11,
			DistName: d.String(),
		}
		uni, err := cluster.RunLocal(spec)
		if err != nil {
			return nil, fmt.Errorf("partition %v uniform: %w", d, err)
		}
		spec.Partitioning = "sample"
		smp, err := cluster.RunLocal(spec)
		if err != nil {
			return nil, fmt.Errorf("partition %v sampled: %w", d, err)
		}
		out = append(out, partitionResult{
			Dist: d.String(), K: k, Rows: pRows,
			UniformImbalance: loadImbalance(uni),
			SampledImbalance: loadImbalance(smp),
			SampleRoundBytes: smp.SampleRoundBytes,
		})
	}
	return out, nil
}

// loadImbalance is max worker output rows over the mean.
func loadImbalance(job *cluster.JobReport) float64 {
	counts := make([]int, len(job.Workers))
	for i, w := range job.Workers {
		counts[i] = int(w.OutputRows)
	}
	return partition.Imbalance(counts)
}

func run(out string, rows int64, benchtime time.Duration) error {
	spillDir, err := os.MkdirTemp("", "benchjson-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spillDir)

	doc := benchFile{Host: currentHost(), Rows: rows}
	for _, w := range workloads(rows, spillDir) {
		res, _, err := measure(w.name, w.spec, benchtime)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		doc.Results = append(doc.Results, res)
		fmt.Printf("%-26s %12.0f ns/op  %8.1f MB/s  peak heap %6.1f MB\n",
			w.name, res.NsPerOp, res.MBPerSec, float64(res.PeakHeapBytes)/1e6)
	}
	micro, err := runMicro(rows, benchtime)
	if err != nil {
		return err
	}
	doc.Micro = micro
	for _, m := range micro {
		extra := ""
		if m.Speedup > 0 {
			extra = fmt.Sprintf("  speedup %.2fx", m.Speedup)
		}
		fmt.Printf("micro/%-20s p=%d %12.0f ns/op  %8.1f MB/s%s\n",
			m.Name, m.Procs, m.NsPerOp, m.MBPerSec, extra)
	}
	straggler, err := runStraggler(rows, benchtime)
	if err != nil {
		return err
	}
	doc.Straggler = straggler
	for _, s := range straggler {
		fmt.Printf("straggler/%-16s x%g %12.0f -> %12.0f ns/op  delta %12.0f ns (%.3fx)\n",
			s.Name, s.Factor, s.HealthyNs, s.StraggledNs, s.DeltaNs, s.Ratio)
	}
	recovery, err := runRecovery(rows, benchtime)
	if err != nil {
		return err
	}
	doc.Recovery = recovery
	for _, r := range recovery {
		fmt.Printf("recovery/%-17s %12.0f -> %12.0f ns/op (%d attempts, mid-Map death)\n",
			r.Name, r.HealthyNs, r.RecoveredNs, r.Attempts)
	}
	mr, err := runMapReduce(rows)
	if err != nil {
		return err
	}
	doc.Mapreduce = mr
	for _, m := range mr {
		fmt.Printf("mapreduce/%-16s %8.1f KB uncoded -> %8.1f KB coded (gain %.2fx)\n",
			m.Kernel, float64(m.UncodedBytes)/1e3, float64(m.CodedBytes)/1e3, m.Gain)
	}
	ext, err := runExtsort(rows, spillDir, benchtime)
	if err != nil {
		return err
	}
	doc.Extsort = ext
	for _, e := range ext {
		fmt.Printf("extsort/%-18s %12.0f ns/op  %.2f cmp/next (%.0f%% ovc)  spill %8.1f -> %8.1f KB (%.1f%% saved)\n",
			e.Name, e.MergeNsPerOp, e.ComparesPerNext, 100*e.OVCDecidedFraction,
			float64(e.SpilledRawBytes)/1e3, float64(e.SpilledDiskBytes)/1e3, 100*e.SpillSavings)
	}
	pl, err := runPlacement()
	if err != nil {
		return err
	}
	doc.Placement = pl
	for _, p := range pl {
		fmt.Printf("placement/K=%-14d %8d clique groups -> %8d resolvable (gain %.1fx)\n",
			p.K, p.CliqueGroups, p.ResolvableGroups, p.GroupGain)
	}
	pt, err := runPartition(rows)
	if err != nil {
		return err
	}
	doc.Partition = pt
	for _, p := range pt {
		fmt.Printf("partition/%-16s uniform %.2fx -> sampled %.2fx imbalance  sample round %6.1f KB\n",
			p.Dist, p.UniformImbalance, p.SampledImbalance, float64(p.SampleRoundBytes)/1e3)
	}
	p, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(p, '\n'), 0o644)
}

// measure runs one workload repeatedly for at least benchtime, sampling
// the peak live heap throughout.
func measure(name string, spec cluster.Spec, benchtime time.Duration) (benchResult, *cluster.JobReport, error) {
	runtime.GC()
	stop := make(chan struct{})
	peakCh := make(chan uint64)
	go func() {
		var peak uint64
		var m runtime.MemStats
		for {
			select {
			case <-stop:
				peakCh <- peak
				return
			default:
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak {
					peak = m.HeapAlloc
				}
				time.Sleep(500 * time.Microsecond)
			}
		}
	}()

	var job *cluster.JobReport
	var err error
	iters := 0
	start := time.Now()
	for elapsed := time.Duration(0); iters == 0 || elapsed < benchtime; elapsed = time.Since(start) {
		job, err = cluster.RunLocal(spec)
		if err != nil {
			close(stop)
			<-peakCh
			return benchResult{}, nil, err
		}
		iters++
	}
	total := time.Since(start)
	close(stop)
	peak := <-peakCh

	nsPerOp := float64(total.Nanoseconds()) / float64(iters)
	return benchResult{
		Name:             name,
		Iterations:       iters,
		NsPerOp:          nsPerOp,
		MBPerSec:         float64(spec.Rows*kv.RecordSize) / 1e6 / (nsPerOp / 1e9),
		Rows:             spec.Rows,
		BytesShuffled:    job.ShuffleLoadBytes,
		ChunksShuffled:   job.ChunksShuffled,
		SpilledRuns:      job.SpilledRuns,
		SpilledRawBytes:  job.Spill.RawBytes,
		SpilledDiskBytes: job.Spill.DiskBytes,
		PeakHeapBytes:    peak,
	}, job, nil
}

// Package job holds the one description of a sorting or MapReduce job. The
// paper describes a whole run by one tuple — (K, r, input, network) — and
// Spec is that tuple plus the runtime's policy knobs: it is the engine's
// configuration, the cluster runtime's job spec, the JSON document the
// coordinator sends every worker and sortd accepts as a job body, and the
// struct the command-line flags bind onto. Every knob is declared here
// once, checked by one Validate and given its default by one Resolve; the
// layers above attach only what cannot cross a wire (Local, and the
// engines' function-valued hooks).
package job

import (
	"fmt"
	"os"
	"time"

	"codedterasort/internal/extsort"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
	"codedterasort/internal/stats"
)

// Algorithm selects which sorting algorithm a job runs.
type Algorithm string

const (
	// AlgTeraSort is the conventional baseline (paper Section III): the
	// engine at r = 1.
	AlgTeraSort Algorithm = "terasort"
	// AlgCoded is CodedTeraSort (paper Section IV).
	AlgCoded Algorithm = "codedterasort"
)

// DefaultWindow is the in-flight chunk window used when pipelining is
// enabled without an explicit Window.
const DefaultWindow = 4

// Spec is the full description of one job, distributed verbatim by the
// coordinator to every worker.
type Spec struct {
	// Algorithm picks TeraSort or CodedTeraSort.
	Algorithm Algorithm `json:"algorithm"`
	// K is the number of workers.
	K int `json:"k"`
	// R is the redundancy parameter (CodedTeraSort only): every input file
	// is mapped on R nodes, 1 <= R <= K.
	R int `json:"r,omitempty"`
	// Placement names the placement/coding strategy (CodedTeraSort only):
	// "" or "clique" for the paper's scheme (C(K,R) subfiles, C(K,R+1)
	// groups), "resolvable" for the resolvable-design scheme (q^(R-1)
	// subfiles, q^R - q^(R-1) groups of size R, q = K/R) that scales K past
	// the binomial wall.
	Placement string `json:"placement,omitempty"`
	// Rows is the input size in records.
	Rows int64 `json:"rows"`
	// Seed feeds the row-addressable generator — the stand-in for the
	// coordinator physically copying input files to worker disks.
	Seed uint64 `json:"seed"`
	// DistName names the input key distribution ("uniform", "skewed",
	// "zipf", "sorted", "nearsorted", "dupheavy", "varprefix"); "" is
	// uniform.
	DistName string `json:"dist,omitempty"`
	// Partitioning selects the reducer-partitioning policy: "" or
	// "uniform" for the paper's uniform key-domain split, "sample" for K-1
	// splitters selected from a deterministic stride sample of the input
	// (DeriveSplitters). The sample is a pure function of the input, so
	// runs of the same input agree on the splitters byte for byte at every
	// R.
	Partitioning string `json:"partitioning,omitempty"`
	// SampleSize is the sample-size target of sampled partitioning
	// (0 = partition.DefaultSampleSize). Requires Partitioning "sample".
	SampleSize int `json:"sample_size,omitempty"`
	// Splitters carries the K-1 splitter boundaries of sampled
	// partitioning, serialized with the spec (JSON base64 per boundary):
	// the coordinator derives them once and distributes them here, so
	// workers partition by them without sampling; empty leaves each worker
	// to derive them itself. Requires Partitioning "sample".
	Splitters [][]byte `json:"splitters,omitempty"`
	// RateMbps, when positive, rate-limits every worker's egress — the
	// paper's 100 Mbps tc configuration.
	RateMbps float64 `json:"rate_mbps,omitempty"`
	// PerMessage is a fixed per-message overhead added by the shaper.
	PerMessage time.Duration `json:"per_message,omitempty"`
	// ParallelShuffle lifts the paper's serial one-sender-at-a-time
	// schedule (Fig 9): all nodes shuffle concurrently (the paper's
	// "Asynchronous Execution" future direction).
	ParallelShuffle bool `json:"parallel_shuffle,omitempty"`
	// StragglerFactor, when above 1, multiplies the shaped transmission
	// delays of worker StragglerRank — the slow-node injection motivated
	// by the straggler-mitigation line of coded computing the paper cites
	// ([11]). Effective only together with RateMbps or PerMessage.
	StragglerFactor float64 `json:"straggler_factor,omitempty"`
	// StragglerRank selects which worker is slow.
	StragglerRank int `json:"straggler_rank,omitempty"`
	// KeepOutput retains each worker's sorted partition in its report
	// (memory-heavy; tests and examples only).
	KeepOutput bool `json:"keep_output,omitempty"`
	// ChunkRows, when positive, enables the streaming pipelined shuffle:
	// every packet travels as a stream of chunk packets, each the XOR of
	// ChunkRows-record chunk slices of its contributing segments, with
	// Pack/Encode, Shuffle and Unpack/Decode overlapped, so peak worker
	// memory stops scaling with Rows/K. Zero keeps the monolithic
	// stage-by-stage schedule.
	ChunkRows int `json:"chunk_rows,omitempty"`
	// Window bounds unacknowledged in-flight chunks per stream when
	// pipelining (0 = DefaultWindow), so peak buffered memory is
	// O(ChunkRows x Window x group size).
	Window int `json:"window,omitempty"`
	// MemBudget, when positive, runs every worker out-of-core: input is
	// consumed block by block, partitions spill to sorted on-disk runs under
	// the per-worker byte budget, Reduce becomes a streaming merge and
	// verification streams in O(1) memory. Each rank outputs the in-memory
	// engine's records, sorted, but equal keys may come in another order
	// (coded) or in arrival order, varying run to run (ParallelShuffle).
	// Implies the streaming shuffle (budget-derived ChunkRows if unset).
	MemBudget int64 `json:"mem_budget,omitempty"`
	// SpillDir is the parent directory for spill files when MemBudget is
	// positive ("" = the system temp directory). Each worker owns a fresh
	// subdirectory, removed when its run returns.
	SpillDir string `json:"spill_dir,omitempty"`
	// InputDir, when set (TeraSort only), reads the input from the K
	// part-NNNNN files teragen -disk wrote there, file k on worker k,
	// instead of generating it. Rows and Seed no longer describe the data;
	// verification describes the files themselves.
	InputDir string `json:"input_dir,omitempty"`
	// Parallelism bounds each worker's compute goroutines (file
	// generation, map scatter, sort, spill-run sorting, packet
	// encode/decode): 0 lets every worker use all its cores
	// (runtime.GOMAXPROCS), 1 forces the sequential paths, higher values
	// pin the worker count. Output is byte-identical at every setting.
	Parallelism int `json:"parallelism,omitempty"`
	// Faults injects node death and slowness at chosen stages — the
	// deterministic failure model behind the straggler-detection and
	// recovery machinery. Distributed with the spec so every worker agrees
	// on which rank misbehaves where.
	Faults []FaultSpec `json:"faults,omitempty"`
	// StageDeadline, when positive, arms straggler detection: a rank that
	// has not finished a stage StageDeadline after the first rank finished
	// it is declared straggling and the attempt is canceled. The
	// supervisor (in process and TCP alike) then re-executes the job with
	// the faulty rank's worker respawned (up to MaxAttempts); over TCP a
	// retry also waits at most StageDeadline for its K workers to register.
	// The deadline must exceed the natural per-stage skew of the cluster,
	// so it is opt-in.
	StageDeadline time.Duration `json:"stage_deadline,omitempty"`
	// Heartbeat is the interval at which TCP workers send liveness frames
	// to the coordinator when StageDeadline is armed (0 derives
	// StageDeadline/3; ignored without a deadline). A worker silent for a
	// full StageDeadline is declared dead even if no stage completes
	// anywhere.
	Heartbeat time.Duration `json:"heartbeat,omitempty"`
	// MaxAttempts caps the total job executions recovery may use (first
	// run included), in process and over TCP. 0 derives the default: 3
	// when StageDeadline is armed, 1 (no recovery) otherwise.
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// The fault kinds of FaultSpec.Kind.
const (
	// FaultKill makes the rank die on entry to the stage: the stage body
	// never runs, no stage event fires, and the rank leaves the run without
	// passing the stage barrier — exactly what the cluster sees when a
	// worker process is killed mid-job.
	FaultKill = "kill"
	// FaultSlow makes the rank a compute straggler at the stage: the body
	// runs to completion, then the rank stalls for (Factor-1) times the
	// body's elapsed time plus Delay before reporting the stage and
	// entering its barrier.
	FaultSlow = "slow"
)

// FaultSpec is one injected fault: rank Rank dies (FaultKill) or stalls
// (FaultSlow, by Factor x stage time plus Delay) at the first stage charged
// to the named timeline column ("Map", "Shuffle", ..., with
// "Encode"/"Decode" accepted for the coded columns). Faults are the
// runtime's deterministic stand-in for real node failure and slowness, so
// the detection and recovery paths are testable without killing processes.
type FaultSpec struct {
	Rank   int           `json:"rank"`
	Stage  string        `json:"stage"`
	Kind   string        `json:"kind"`
	Factor float64       `json:"factor,omitempty"`
	Delay  time.Duration `json:"delay,omitempty"`
}

// Local is the part of a job that cannot cross a wire: values only the
// processes of one address space can share. The zero value — the only one a
// TCP worker or a sortd job ever sees — attaches nothing.
type Local struct {
	// Part maps keys to the K reducers. Nil selects the Partitioning
	// policy's partitioner (uniform by default). Mutually exclusive with
	// Partitioning "sample".
	Part partition.Partitioner
	// Input, when non-nil, supplies the placement strategy's input files
	// directly instead of generating them: file i (the strategy's file
	// order; colex order of its node set under the clique scheme, so file k
	// of node k at R = 1) is Input[i]. All workers must hold the same
	// slice. Rows and Seed are ignored for data placement when Input is
	// set. Mutually exclusive with InputDir.
	//
	// The files are read-only: every holder aliases them, and no stage
	// writes an input file — Map keeps views of their rows until Reduce,
	// Encode gathers from them, and Decode cancels in the packets it
	// received, never in a file. The in-process sort runtime
	// (cluster.RunLocalOpts) supplies an in-memory job's input this way,
	// generated once for all ranks; MapReduce jobs supply Job.Input's splits.
	Input []kv.Records
}

// Resolved is a validated job: the Spec with every default filled in and
// every name parsed, which is what the engine reads. Only Resolve builds
// one.
type Resolved struct {
	// Spec holds the effective values: R is Redundancy(), ChunkRows is the
	// budget-derived chunk size when MemBudget is set without one, Window,
	// MaxAttempts and Heartbeat carry their defaults.
	Spec
	// Local is the job's attachment. Part is filled in from the policy —
	// uniform, or the preset Splitters — and stays nil only when a sampled
	// job's splitters are still to be derived from its input
	// (DeriveSplitters).
	Local
	// KeyDist is the parsed DistName.
	KeyDist kv.Distribution
	// Strat is the placement strategy of (Placement, K, R).
	Strat placement.Strategy
}

// Redundancy returns the engine's redundancy parameter: TeraSort is the
// engine at r = 1.
func (s Spec) Redundancy() int {
	if s.Algorithm == AlgTeraSort {
		return 1
	}
	return s.R
}

// Sampled reports whether the spec asks for sampled partitioning.
func (s Spec) Sampled() bool {
	return partition.Policy(s.Partitioning) == partition.PolicySample
}

// Dist returns the input key distribution of a validated spec (Resolve
// reports an unknown name; here it reads as uniform).
func (s Spec) Dist() kv.Distribution {
	d, _ := kv.ParseDistribution(s.DistName)
	return d
}

// FaultsWithout returns the fault list minus every fault of a consumed
// rank — the consumption rule of attempt-scoped recovery: a retry respawns
// the faulty rank's worker on a healthy substitute, so its injected faults
// do not strike again.
func (s Spec) FaultsWithout(consumed map[int]bool) []FaultSpec {
	var out []FaultSpec
	for _, f := range s.Faults {
		if !consumed[f.Rank] {
			out = append(out, f)
		}
	}
	return out
}

// Validate checks the description's internal consistency. It is Resolve
// with nothing attached: every entry point rejects, up front, exactly what
// the engine would refuse later.
func (s Spec) Validate() error {
	_, err := s.Resolve(Local{})
	return err
}

// Resolve validates the job — the spec on its own, then the attachment
// against it — and fills in what the spec leaves to be derived.
func (s Spec) Resolve(local Local) (*Resolved, error) {
	r := &Resolved{Spec: s, Local: local}
	switch s.Algorithm {
	case AlgTeraSort, AlgCoded:
	default:
		return nil, fmt.Errorf("job: unknown algorithm %q", s.Algorithm)
	}
	if s.K <= 0 {
		return nil, fmt.Errorf("job: K=%d", s.K)
	}
	if s.Algorithm == AlgCoded && (s.R < 1 || s.R > s.K) {
		return nil, fmt.Errorf("job: r=%d outside [1,%d]", s.R, s.K)
	}
	r.R = s.Redundancy()
	kind, err := placement.ParseKind(s.Placement)
	if err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	if kind != placement.KindClique && s.Algorithm != AlgCoded {
		return nil, fmt.Errorf("job: %s placement requires the coded algorithm", kind)
	}
	// Infeasible (K, r, strategy) combinations fail here rather than in a
	// worker.
	if r.Strat, err = placement.New(kind, s.K, r.R); err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	for _, c := range []struct {
		neg  bool
		what string
	}{
		{s.Rows < 0, "rows"}, {s.ChunkRows < 0, "chunk rows"}, {s.Window < 0, "window"},
		{s.MemBudget < 0, "mem budget"}, {s.Parallelism < 0, "parallelism"},
		{s.StageDeadline < 0, "stage deadline"}, {s.Heartbeat < 0, "heartbeat interval"},
		{s.MaxAttempts < 0, "max attempts"}, {s.SampleSize < 0, "sample size"},
	} {
		if c.neg {
			return nil, fmt.Errorf("job: negative %s", c.what)
		}
	}
	if s.InputDir != "" {
		// A worker reads its own part file and nothing replicates it, so
		// every file needs exactly one holder: r = 1.
		if s.Algorithm != AlgTeraSort {
			return nil, fmt.Errorf("job: input dir is TeraSort-only")
		}
		if local.Input != nil {
			return nil, fmt.Errorf("job: both in-memory input and input dir set")
		}
	}
	if local.Input != nil && len(local.Input) != r.Strat.NumFiles() {
		return nil, fmt.Errorf("job: %d input files, want %d for the %s strategy (K=%d, r=%d)",
			len(local.Input), r.Strat.NumFiles(), kind, s.K, r.R)
	}
	// The liveness rule declares a worker dead after a silent
	// StageDeadline, so heartbeats must flow faster than that or every
	// healthy worker is condemned before its first ping.
	if s.StageDeadline > 0 && s.Heartbeat >= s.StageDeadline {
		return nil, fmt.Errorf("job: heartbeat interval %v not below stage deadline %v", s.Heartbeat, s.StageDeadline)
	}
	if r.KeyDist, err = kv.ParseDistribution(s.DistName); err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	pol, err := partition.ParsePolicy(s.Partitioning)
	if err != nil {
		return nil, fmt.Errorf("job: %w", err)
	}
	if pol == partition.PolicySample {
		// The sample (or the preset bounds) resolves the partitioner; an
		// explicit one would contradict it.
		if local.Part != nil {
			return nil, fmt.Errorf("job: explicit partitioner with sample partitioning")
		}
		if len(s.Splitters) > 0 {
			if r.Part, err = partition.NewSplitters(s.Splitters); err != nil {
				return nil, fmt.Errorf("job: splitters: %w", err)
			}
		}
	} else {
		if s.SampleSize > 0 {
			return nil, fmt.Errorf("job: sample size set without sample partitioning")
		}
		if len(s.Splitters) > 0 {
			return nil, fmt.Errorf("job: splitters set without sample partitioning")
		}
		if r.Part == nil {
			r.Part = partition.NewUniform(s.K)
		}
	}
	if r.Part != nil && r.Part.NumPartitions() != s.K {
		return nil, fmt.Errorf("job: partitioner has %d partitions for K=%d", r.Part.NumPartitions(), s.K)
	}
	for _, f := range s.Faults {
		if err := f.validate(s.K); err != nil {
			return nil, err
		}
	}
	if s.MemBudget > 0 {
		if s.ChunkRows == 0 {
			// K concurrent chunk streams share the budget.
			r.ChunkRows = extsort.BudgetChunkRows(s.MemBudget, s.K, s.Window)
		}
		// Spool blocks and the streaming merge are framed at ChunkRows, so
		// the spill-block cap bounds it.
		if r.ChunkRows > extsort.MaxBlockRows {
			return nil, fmt.Errorf("job: chunk rows %d exceed the spill block cap %d", r.ChunkRows, extsort.MaxBlockRows)
		}
	}
	if r.ChunkRows > 0 && s.Window == 0 {
		r.Window = DefaultWindow
	}
	if s.MaxAttempts == 0 {
		r.MaxAttempts = 1
		if s.StageDeadline > 0 {
			r.MaxAttempts = 3
		}
	}
	switch {
	case s.StageDeadline == 0:
		// Heartbeats feed only the deadline's liveness rule.
		r.Heartbeat = 0
	case s.Heartbeat == 0:
		r.Heartbeat = s.StageDeadline / 3
	}
	return r, nil
}

// validate checks one fault against the job's world size.
func (f FaultSpec) validate(k int) error {
	if _, err := stats.ParseStage(f.Stage); err != nil {
		return fmt.Errorf("job: fault: %w", err)
	}
	if f.Kind != FaultKill && f.Kind != FaultSlow {
		return fmt.Errorf("job: unknown fault kind %q (want kill or slow)", f.Kind)
	}
	if f.Rank < 0 || f.Rank >= k {
		return fmt.Errorf("job: fault rank %d outside [0,%d)", f.Rank, k)
	}
	if f.Factor < 0 || f.Delay < 0 {
		return fmt.Errorf("job: negative fault stall (factor %g, delay %v)", f.Factor, f.Delay)
	}
	return nil
}

// ExpectedSplitters returns the splitter boundaries a sampled job
// partitions by, computed without running it: the preset Splitters, or
// the hook-free DeriveSplitters of the spec's own input (generated rows or
// InputDir part files). Returns nil with no error when the spec does not
// use sampled partitioning.
func (s Spec) ExpectedSplitters() ([][]byte, error) {
	if !s.Sampled() {
		return nil, nil
	}
	if len(s.Splitters) > 0 {
		return s.Splitters, nil
	}
	return s.DeriveSplitters(nil, nil)
}

// DeriveSplitters is the sampler of sampled partitioning. It walks the
// deterministic global stride sample of the job's input — every stride-th
// row of input's files read in file order when input is non-nil, of the
// generated rows [0, Rows) otherwise — passes it through mapRecords when
// that is non-nil (the Map-stage hooks, so the splitters balance the
// records the shuffle carries), and selects K-1 splitters from the
// sample's keys. The sample is a pure function of the input, the sample
// size and the hook, so every rank, attempt and redundancy derives the same
// bounds with no communication. InputDir part files are sampled by
// position, each at the stride of K files of its size: the global stride
// when the files split the input evenly.
func (s Spec) DeriveSplitters(input []kv.Records, mapRecords func(kv.Records) kv.Records) ([][]byte, error) {
	var sample kv.Records
	switch {
	case input != nil:
		var total int64
		for _, f := range input {
			total += int64(f.Len())
		}
		stride := partition.SampleStride(total, s.SampleSize)
		fi, first := 0, int64(0) // the file holding row g, and its first row
		for g := int64(0); g < total; g += stride {
			for g >= first+int64(input[fi].Len()) {
				first += int64(input[fi].Len())
				fi++
			}
			sample = sample.Append(input[fi].Record(int(g - first)))
		}
	case s.InputDir != "":
		for rank := 0; rank < s.K; rank++ {
			path := extsort.PartFile(s.InputDir, rank)
			st, err := os.Stat(path)
			if err != nil {
				return nil, fmt.Errorf("job: sample input: %w", err)
			}
			rows := st.Size() / int64(kv.RecordSize)
			sampled, err := extsort.SampleFile(path, partition.SampleStride(rows*int64(s.K), s.SampleSize))
			if err != nil {
				return nil, fmt.Errorf("job: sample input: %w", err)
			}
			sample = sample.AppendRecords(sampled)
		}
	default:
		gen := kv.NewGenerator(s.Seed, s.Dist())
		rec := make([]byte, kv.RecordSize)
		for g, stride := int64(0), partition.SampleStride(s.Rows, s.SampleSize); g < s.Rows; g += stride {
			gen.Record(rec, g)
			sample = sample.Append(rec)
		}
	}
	if mapRecords != nil {
		sample = mapRecords(sample)
	}
	return partition.SelectSplitters(sample.Keys(), s.K)
}

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
	"codedterasort/internal/transport"
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
	// "uniform" for the paper's uniform key-domain split, "sample" for the
	// pre-Map sampling round — one holder of every input file contributes a
	// deterministic stride sample of its keys, rank 0 selects K-1 splitters
	// from the pooled sample and broadcasts them. The pooled sample is a
	// pure function of the input, so runs of the same input agree on the
	// splitters byte for byte at every R.
	Partitioning string `json:"partitioning,omitempty"`
	// SampleSize is the pooled sample-size target of sampled partitioning
	// (0 = partition.DefaultSampleSize). Requires Partitioning "sample".
	SampleSize int `json:"sample_size,omitempty"`
	// Splitters carries the K-1 agreed splitter boundaries of sampled
	// partitioning, serialized with the spec (JSON base64 per boundary):
	// when the coordinator can compute them up front — any
	// generator-backed input — it distributes them here and workers skip
	// the in-graph sampling round; empty leaves the round to the engine.
	// Requires Partitioning "sample".
	Splitters [][]byte `json:"splitters,omitempty"`
	// TreeMulticast selects binomial-tree multicast instead of the
	// paper's serial per-receiver multicast.
	TreeMulticast bool `json:"tree_multicast,omitempty"`
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
	// consumed block by block, intermediate partitions spill to
	// radix-sorted on-disk runs under the per-worker byte budget, and
	// Reduce becomes a streaming loser-tree merge. Output is byte-identical
	// to the in-memory engine; verification switches to the streaming
	// checker so it stays O(1) memory too. Implies the streaming pipelined
	// shuffle (a budget-derived ChunkRows is chosen when none is set).
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
	// it is declared straggling and the attempt is canceled. The in-process
	// supervisor (sort and MapReduce jobs alike) then re-executes the job
	// with the faulty rank's worker respawned (up to MaxAttempts); the TCP
	// coordinator aborts the job and fails fast with the suspect named
	// instead of hanging. The deadline must exceed the natural per-stage
	// skew of the cluster, so it is opt-in.
	StageDeadline time.Duration `json:"stage_deadline,omitempty"`
	// Heartbeat is the interval at which TCP workers send liveness frames
	// to the coordinator when StageDeadline is armed (0 derives
	// StageDeadline/3; ignored without a deadline). A worker silent for a
	// full StageDeadline is declared dead even if no stage completes
	// anywhere.
	Heartbeat time.Duration `json:"heartbeat,omitempty"`
	// MaxAttempts caps the total job executions in-process recovery may
	// use (first run included). 0 derives the default: 3 when
	// StageDeadline is armed, 1 (no recovery) otherwise. Recovery by
	// re-execution is in-process only: the TCP coordinator refuses an
	// explicit value above 1 and runs the derived default once.
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
	// uniform, or the preset Splitters — and stays nil only when the
	// sampling round has to agree on it at run time.
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

// Strategy returns the multicast strategy of the spec.
func (s Spec) Strategy() transport.BcastStrategy {
	if s.TreeMulticast {
		return transport.BcastBinomialTree
	}
	return transport.BcastSequential
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
		// The sampling round (or the preset bounds) resolves the
		// partitioner; an explicit one would contradict it.
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

// ExpectedSplitters reproduces the splitter boundaries the engine's
// sampling round will agree on, computed coordinator-side without running
// the job. The round pools the deterministic global stride sample of the
// input — the per-holder shares tile the row space, so the pooled multiset
// is a pure function of (input, sample size) alone — and selection sorts
// the pool, so replaying the same stride walk here yields byte-identical
// bounds. For InputDir jobs the part files are sampled positionally, the
// same way the workers do. Returns nil with no error when the spec does
// not use sampled partitioning.
func (s Spec) ExpectedSplitters() ([][]byte, error) {
	if !s.Sampled() {
		return nil, nil
	}
	if len(s.Splitters) > 0 {
		return s.Splitters, nil
	}
	var keys []byte
	if s.InputDir != "" {
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
			keys = append(keys, sampled.Keys()...)
		}
	} else {
		gen := kv.NewGenerator(s.Seed, s.Dist())
		stride := partition.SampleStride(s.Rows, s.SampleSize)
		var key [kv.KeySize]byte
		for g := int64(0); g < s.Rows; g += stride {
			gen.Key(key[:], g)
			keys = append(keys, key[:]...)
		}
	}
	return partition.SelectSplitters(keys, s.K)
}

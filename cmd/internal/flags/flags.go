// Package flags centralizes the job-spec flag surface shared by the run
// binaries (terasort, codedterasort, coordinator, worker, codedmr, sortctl).
// Each flag has one canonical name, default and usage string and binds
// straight onto its job.Spec field, so a registered flag cannot fail to
// reach the job.
package flags

import (
	"flag"

	"codedterasort/internal/job"
)

// ProcsUsage is the canonical -procs usage string; binaries with a
// different procs semantic (the worker's per-node override) pass their own.
const ProcsUsage = "per-worker compute goroutines for the map/sort/code hot paths (0 = all cores, 1 = sequential); output is identical at any setting"

// Job is the flag target: the job spec the Register* calls bind a FlagSet
// onto. After Parse the fields hold the flag values as typed; For yields
// the spec to run.
type Job struct {
	job.Spec
}

// RegisterCommon binds the flags every job shape shares: cluster size,
// input description, traffic shaping, and the engine runtime's policy
// knobs (chunk streaming, memory budget, parallelism). defaultK
// parameterizes the one default the binaries disagree on.
func (j *Job) RegisterCommon(fs *flag.FlagSet, defaultK int) {
	fs.IntVar(&j.K, "k", defaultK, "number of worker nodes")
	fs.Int64Var(&j.Rows, "rows", 100000, "input size in 100-byte records")
	fs.Uint64Var(&j.Seed, "seed", 2017, "input generator seed")
	fs.StringVar(&j.DistName, "dist", "",
		"input key distribution: uniform (default), skewed, zipf, sorted, nearsorted, dupheavy, varprefix")
	fs.StringVar(&j.Partitioning, "partition", "",
		"partitioning policy: uniform (default: equal key-range splits) or sample (splitters from a deterministic input sample — balanced reducers on skewed keys)")
	fs.IntVar(&j.SampleSize, "samples", 0,
		"global sample size for -partition=sample (0 = default)")
	fs.Float64Var(&j.RateMbps, "rate", 0, "per-node egress cap in Mbps (0 = unlimited)")
	fs.DurationVar(&j.PerMessage, "permsg", 0, "fixed per-message overhead")
	fs.IntVar(&j.ChunkRows, "chunk", 0, "streaming pipelined shuffle chunk size in records (0 = monolithic stages)")
	fs.IntVar(&j.Window, "window", 0, "in-flight chunk window per stream (0 = engine default)")
	fs.Int64Var(&j.MemBudget, "membudget", 0, "per-worker memory budget in bytes: spill sorted runs to disk and merge-stream the reduce (0 = fully in-memory)")
	fs.StringVar(&j.SpillDir, "spilldir", "", "parent directory for spill files (default system temp)")
	j.RegisterProcs(fs, ProcsUsage)
}

// RegisterCoded binds the CodedTeraSort-only flags: the redundancy
// parameter, the placement/coding strategy and the multicast strategy.
func (j *Job) RegisterCoded(fs *flag.FlagSet, defaultR int) {
	fs.IntVar(&j.R, "r", defaultR, "redundancy parameter (each file mapped on r nodes)")
	fs.StringVar(&j.Placement, "strategy", "",
		"placement/coding strategy: clique (the paper's scheme, default) or resolvable (q^(r-1) subfiles and far fewer groups at large K; needs K divisible by r)")
	fs.BoolVar(&j.TreeMulticast, "tree", false, "binomial-tree multicast instead of serial")
}

// RegisterFaults binds the straggler/failure-resilience flags: the
// -stragglers egress slow-down injection and the detection/recovery knobs
// of the supervised runtime.
func (j *Job) RegisterFaults(fs *flag.FlagSet) {
	fs.Float64Var(&j.StragglerFactor, "stragglers", 0,
		"inject one straggler: slow the straggler rank's egress by this factor (0 or 1 = healthy; effective with -rate or -permsg)")
	fs.IntVar(&j.StragglerRank, "straggler-rank", 0, "which rank the -stragglers injection slows")
	fs.DurationVar(&j.StageDeadline, "deadline", 0,
		"stage deadline arming straggler detection: a rank this far behind its fastest peer on a stage is declared faulty (0 = detection off)")
	fs.IntVar(&j.MaxAttempts, "max-attempts", 0,
		"recovery attempt cap for supervised local runs (0 = default: 3 with -deadline, else 1)")
}

// RegisterInDir binds the file-backed input flag (TeraSort only).
func (j *Job) RegisterInDir(fs *flag.FlagSet) {
	fs.StringVar(&j.InputDir, "indir", "", "read input from the part files teragen -disk wrote here instead of generating it")
}

// RegisterProcs binds only the -procs flag — the worker binary's flag
// surface, where procs overrides the coordinator-distributed setting.
func (j *Job) RegisterProcs(fs *flag.FlagSet, usage string) {
	fs.IntVar(&j.Parallelism, "procs", 0, usage)
}

// For returns the parsed flags as a job spec for the given algorithm.
// -stragglers at or below 1 means healthy, and TeraSort specs drop the
// coded-only knobs (coded ones the TeraSort-only -indir) so identical flag
// sets produce valid specs for either engine (the -compare path).
func (j *Job) For(alg job.Algorithm) job.Spec {
	spec := j.Spec
	spec.Algorithm = alg
	if spec.StragglerFactor <= 1 {
		spec.StragglerFactor, spec.StragglerRank = 0, 0
	}
	if alg == job.AlgTeraSort {
		spec.R, spec.Placement, spec.TreeMulticast = 0, "", false
	} else {
		spec.InputDir = ""
	}
	return spec
}

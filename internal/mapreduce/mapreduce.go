// Package mapreduce promotes the sorting engines' coded shuffle into a
// general coded-MapReduce framework — the paper's "Beyond Sorting
// Algorithms" direction (Section VI) made first-class, following the Coded
// MapReduce / Fundamental-Tradeoff scheme for arbitrary map and reduce
// functions with tunable replication r.
//
// A Job pairs a user Mapper and Reducer with the shared job description
// (job.Spec) and compiles onto the sort engine (internal/coded) at its
// replication R:
//
//   - uncoded (R <= 1): one input split per node, serial-unicast shuffle;
//   - coded (R >= 2): every split mapped on R nodes, coded multicast
//     shuffle moving ~1/R of the uncoded load.
//
// Either way the job inherits the engine's machinery for free: the chunked
// streaming shuffle (ChunkRows/Window), out-of-core spilling (MemBudget),
// the multicore worker kernels (Parallelism) and per-stage hooks — and
// RunLocal runs it on the sorters' own supervisor (cluster.Supervise), so
// fault injection, deadline detection and recovery are theirs too. The map
// function runs inside the engines'
// Map stage through the Transform hook; the shuffled intermediate records
// are sorted by the engines' Reduce stage, and the framework's group-reduce
// driver consumes the sorted stream through OutputSink, invoking the
// Reducer once per key group.
//
// Determinism contract: for a fixed Job, the reduced output of every rank
// is byte-identical across the uncoded and coded engines, every execution
// mode (monolithic, chunked, out-of-core), any Parallelism setting, and
// recovered re-executions — the property the mrtest harness gates for
// every registered kernel. The framework guarantees it by canonicalizing
// each key group (values presented in ascending byte order) before the
// Reducer runs, so kernels need not be order-insensitive.
package mapreduce

import (
	"fmt"

	"codedterasort/internal/coded"
	"codedterasort/internal/engine"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
	"codedterasort/internal/transport"
)

// Emit hands one record to the framework: a key of at most kv.KeySize bytes
// and a value of at most kv.ValueSize bytes, each zero-padded to its fixed
// width (and truncated beyond it — keys that must stay distinct must
// differ within the first kv.KeySize bytes).
type Emit func(key, value []byte)

// Mapper is the user map function: it consumes one input record and emits
// zero or more intermediate records. The same contract the engines' Filter
// hook carries applies: Map must be pure and identical on all workers,
// because under coded execution every replica of an input split must
// produce identical intermediate values for the XOR cancellation to hold.
type Mapper interface {
	Map(record []byte, emit Emit)
}

// MapperFunc adapts a function to the Mapper interface.
type MapperFunc func(record []byte, emit Emit)

// Map implements Mapper.
func (f MapperFunc) Map(record []byte, emit Emit) { f(record, emit) }

// Reducer is the user reduce function: it consumes one key group and emits
// zero or more output records. values hold the group's kv.ValueSize-byte
// values in ascending byte order (the framework canonicalizes arrival
// order, so output is deterministic for any reducer); they alias a buffer
// that dies with the call and must not be retained.
type Reducer interface {
	Reduce(key []byte, values [][]byte, emit Emit)
}

// ReducerFunc adapts a function to the Reducer interface.
type ReducerFunc func(key []byte, values [][]byte, emit Emit)

// Reduce implements Reducer.
func (f ReducerFunc) Reduce(key []byte, values [][]byte, emit Emit) { f(key, values, emit) }

// Identity is the pass-through Reducer: every value of the group is
// re-emitted under its key, in canonical (ascending) order — the reducer of
// selection-style jobs like Grep, whose output is the sorted matches.
var Identity Reducer = ReducerFunc(func(key []byte, values [][]byte, emit Emit) {
	for _, v := range values {
		emit(key, v)
	}
})

// Job is one MapReduce job: the shared job description plus the functions
// and data only one address space can hold. All workers must hold identical
// jobs (in-process runners share the value).
type Job struct {
	// Spec is the job description, knob for knob the sorters' (job.Spec):
	// K workers, map replication R, the generated input (Rows, Seed,
	// DistName) and every runtime policy. Algorithm may stay empty, in
	// which case R alone decides: every input split is mapped on R nodes
	// and the shuffle is coded multicast at R >= 2, the uncoded job at
	// R <= 1. Partitioning "sample" runs the engine's sampling round over
	// the mapped intermediate keys — the Mapper's emissions, not the raw
	// input — range-ordering the reducers by intermediate key. RunLocal
	// reads the runtime knobs too — traffic shaping, stragglers,
	// StageDeadline and MaxAttempts — exactly as the sorters' supervisor
	// does.
	job.Spec
	// Mapper is the map function. Required.
	Mapper Mapper
	// Reducer is the reduce function. Nil selects Identity.
	Reducer Reducer
	// Input, when non-empty, is the job's input dataset. The framework
	// splits it by rows into the engine's input files — K contiguous splits
	// uncoded, one per placement subfile coded; the same global row range
	// either way, so both forms map the same multiset. Rows, Seed and
	// DistName are ignored when Input is set.
	Input kv.Records
	// Part maps intermediate keys to the K reducers. Nil selects the
	// framework's hash partitioner, which spreads arbitrary (e.g. text)
	// keys evenly; kernels whose keys are uniform in the key space (Grep)
	// may install partition.NewUniform for range-partitioned output.
	// Mutually exclusive with Partitioning "sample".
	Part partition.Partitioner
}

// normalize fills the job's defaults and resolves its description; the
// checks themselves are job.Spec.Resolve's.
func (j Job) normalize() (Job, *job.Resolved, error) {
	if j.Mapper == nil {
		return j, nil, fmt.Errorf("mapreduce: job has no Mapper")
	}
	if j.Reducer == nil {
		j.Reducer = Identity
	}
	if j.Algorithm == "" {
		j.Algorithm, j.R = job.AlgCoded, max(j.R, 1)
	}
	if j.Input.Len() > 0 {
		j.Rows = int64(j.Input.Len())
	}
	if j.Part == nil && !j.Sampled() {
		j.Part = NewHashPartitioner(j.K)
	}
	spec, err := j.Resolve(job.Local{Part: j.Part})
	return j, spec, err
}

// transform adapts the Mapper to the engines' Transform hook: every emitted
// (key, value) pair becomes one fixed-width intermediate record, built in a
// per-call scratch buffer (the engine copies on emit).
func (j Job) transform() func(rec []byte, emit func([]byte)) {
	m := j.Mapper
	return func(rec []byte, emit func([]byte)) {
		var buf [kv.RecordSize]byte
		m.Map(rec, func(key, value []byte) {
			fillRecord(buf[:], key, value)
			emit(buf[:])
		})
	}
}

// engineInput splits Job.Input into the engine's input files along the row
// bounds of the placement strategy's plan (nil Input stays nil: the engine
// generates).
func (j Job) engineInput(strat placement.Strategy) ([]kv.Records, error) {
	if j.Input.Len() == 0 {
		return nil, nil
	}
	plan, err := strat.Plan(j.Rows)
	if err != nil {
		return nil, err
	}
	files := make([]kv.Records, plan.NumFiles())
	for i := range files {
		first, last := plan.FileRows(i)
		files[i] = j.Input.Slice(int(first), int(last))
	}
	return files, nil
}

// Result is one worker's output.
type Result struct {
	// Summary is the engine's account of the rank's run: stage times,
	// shuffle payload sent (SentBytes: unicast bytes uncoded, multicast
	// packet bytes — each packet counted once, the paper's load metric —
	// coded), chunk and spill counters. Its OutputRows counts the sorted
	// intermediate records that entered the group-reduce driver.
	coded.Summary
	// Output is the rank's reduced output: the Reducer's emissions over
	// the sorted key groups of this rank's partition, in ascending group
	// order.
	Output kv.Records
}

// Run executes the job's worker for ep.Rank() and blocks until this rank's
// part completes. Every rank of the endpoint's world must call Run
// concurrently with an identical job.
func Run(ep transport.Endpoint, j Job) (Result, error) {
	return run(ep, j, nil)
}

// run is Run with hooks observing each timed engine stage.
func run(ep transport.Endpoint, j Job, hooks engine.Hooks) (Result, error) {
	j, spec, err := j.normalize()
	if err != nil {
		return Result{}, err
	}
	input, err := j.engineInput(spec.Strat)
	if err != nil {
		return Result{}, err
	}
	g := newGrouper(j.Reducer)
	res, err := coded.Run(ep, coded.Config{
		Spec: j.Spec, Local: job.Local{Part: j.Part, Input: input},
		Transform: j.transform(), OutputSink: g.Feed, Hooks: hooks,
	})
	if err != nil {
		return Result{}, err
	}
	return Result{Summary: res.Summary, Output: g.finish()}, nil
}

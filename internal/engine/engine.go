// Package engine is the stage-graph execution runtime under the sort
// engine (internal/coded). The paper presents TeraSort and CodedTeraSort as
// one dataflow parameterized by the redundancy r — the stages Map,
// Pack/Encode, Shuffle, Unpack/Decode and Reduce — and the runtime factors
// everything that is not placement, codec or shuffle topology out of the
// engine package:
//
//   - A job is a declarative Graph of typed stages (Kind) with explicit
//     data-plane edges (Stage.Needs/Provides) and mode annotations saying
//     which execution modes a stage participates in.
//   - The scheduler (Run) derives the active Mode from the resolved job
//     spec (job.Resolved: ChunkRows/MemBudget), selects the stage schedule,
//     validates its edges, and drives the stages with the paper's
//     synchronous-stage protocol: each timed stage is charged to the
//     run's stage breakdown (Context.Times), reported to the Hooks and
//     followed by a cluster barrier (Section V-A).
//   - Cross-cutting behaviors are runtime services on the Context: the
//     budget-bounded spill sorter lifecycle, transfer accounting, the
//     serial-vs-parallel sender schedule, and LIFO cleanups.
//   - The chunk-stream protocol of the pipelined modes is provided once
//     (ChunkRx for the receive side, CreditGate for the send-side credit
//     window) so the engine contributes only its codec callbacks.
//
// The engine package is thereby a thin graph builder: the placement plan,
// the codec stages and the group shuffle topology are all that is left in
// it.
package engine

import (
	"fmt"

	"codedterasort/internal/job"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
)

// Kind types a stage. The paper's tables align Pack with Encode and Unpack
// with Decode, so a Kind maps onto the shared stats.Stage axis for timing.
type Kind int

const (
	// KindPlace is untimed input placement/setup (the coordinator's file
	// distribution stands outside the measured pipeline); it is neither
	// charged to the breakdown nor followed by a barrier.
	KindPlace Kind = iota
	// KindCodeGen establishes multicast-group communication state (graphs
	// whose groups have more than two members).
	KindCodeGen
	// KindMap hashes input records into reducer partitions.
	KindMap
	// KindPack serializes intermediate values (Encode for CodedTeraSort).
	KindPack
	// KindShuffle moves intermediate data between nodes.
	KindShuffle
	// KindUnpack deserializes received data (Decode for CodedTeraSort).
	KindUnpack
	// KindReduce produces the node's sorted output partition.
	KindReduce
	// KindSample is the pre-Map splitter-agreement round of sampled
	// partitioning: gather per-rank key samples, select splitters, and
	// broadcast the agreed bounds. Charged to the CodeGen column (the other
	// pre-Map coordination stage) so the stats wire format is unchanged.
	KindSample
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindPlace:
		return "Place"
	case KindCodeGen:
		return "CodeGen"
	case KindMap:
		return "Map"
	case KindPack:
		return "Pack"
	case KindShuffle:
		return "Shuffle"
	case KindUnpack:
		return "Unpack"
	case KindReduce:
		return "Reduce"
	case KindSample:
		return "Sample"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Stats returns the breakdown stage the kind is charged to, and whether it
// is timed at all (KindPlace is not).
func (k Kind) Stats() (stats.Stage, bool) {
	switch k {
	case KindCodeGen, KindSample:
		return stats.StageCodeGen, true
	case KindMap:
		return stats.StageMap, true
	case KindPack:
		return stats.StagePack, true
	case KindShuffle:
		return stats.StageShuffle, true
	case KindUnpack:
		return stats.StageUnpack, true
	case KindReduce:
		return stats.StageReduce, true
	default:
		return 0, false
	}
}

// Stage is one node of the job graph: a typed unit of work annotated with
// the execution modes it participates in and its data-plane edges.
type Stage struct {
	// Kind types the stage and selects its breakdown column.
	Kind Kind
	// Modes says which execution modes include this stage. Registering
	// several stages of the same Kind under disjoint mode sets expresses
	// per-mode implementations declaratively — the scheduler picks the
	// active one; the engines hold no mode switches.
	Modes ModeSet
	// Needs names the data-plane values this stage consumes. Each must be
	// provided by an earlier stage of the active mode's schedule.
	Needs []string
	// Provides names the data-plane values this stage produces.
	Provides []string
	// Run executes the stage body for this rank.
	Run func(*Context) error
}

// Graph is an ordered stage DAG for one engine. Stages are scheduled in
// insertion order, filtered by the active mode; Needs/Provides edges are
// validated against that schedule.
type Graph struct {
	name       string
	barrierTag func(stats.Stage) transport.Tag
	stages     []Stage
}

// NewGraph returns an empty graph. name prefixes run-time errors (it is the
// engine's package name); barrierTag supplies the engine's tag for the
// barrier following each timed stage.
func NewGraph(name string, barrierTag func(stats.Stage) transport.Tag) *Graph {
	return &Graph{name: name, barrierTag: barrierTag}
}

// Add appends a stage and returns the graph for chaining. It panics on a
// stage with no Run body or empty mode set — both are builder bugs, not
// run-time conditions.
func (g *Graph) Add(s Stage) *Graph {
	if s.Run == nil {
		panic(fmt.Sprintf("engine: %s stage %v has no Run body", g.name, s.Kind))
	}
	if s.Modes == 0 {
		panic(fmt.Sprintf("engine: %s stage %v has an empty mode set", g.name, s.Kind))
	}
	g.stages = append(g.stages, s)
	return g
}

// Schedule returns the stage sequence of mode m after checking its
// data-plane edges: every Need must be Provided by an earlier stage of the
// same schedule.
func (g *Graph) Schedule(m Mode) ([]Stage, error) {
	var sched []Stage
	provided := map[string]bool{}
	for _, s := range g.stages {
		if !s.Modes.Has(m) {
			continue
		}
		for _, need := range s.Needs {
			if !provided[need] {
				return nil, fmt.Errorf("engine: %s %v stage needs %q, provided by no earlier stage in %v mode",
					g.name, s.Kind, need, m)
			}
		}
		for _, p := range s.Provides {
			provided[p] = true
		}
		sched = append(sched, s)
	}
	if len(sched) == 0 {
		return nil, fmt.Errorf("engine: %s graph has no stages in %v mode", g.name, m)
	}
	return sched, nil
}

// Validate checks the whole graph: every stage's mode set must name only
// known modes (bits outside AllModes would make a stage silently
// unschedulable), every populated mode's schedule must have well-formed
// data-plane edges, and no mode may schedule two stages of the same timed
// Kind — per-mode variants of a stage must carry disjoint mode sets, and a
// duplicate would also confuse the fault injector, which strikes the first
// stage of a breakdown column. Untimed KindPlace stages may repeat (setup
// can be multi-part).
func (g *Graph) Validate() error {
	for _, s := range g.stages {
		if s.Modes&^AllModes != 0 {
			return fmt.Errorf("engine: %s %v stage has unknown mode bits %#x", g.name, s.Kind, uint8(s.Modes&^AllModes))
		}
	}
	for m := ModeMono; m <= ModeSpill; m++ {
		populated := false
		for _, s := range g.stages {
			if s.Modes.Has(m) {
				populated = true
				break
			}
		}
		if !populated {
			continue
		}
		sched, err := g.Schedule(m)
		if err != nil {
			return err
		}
		seen := map[Kind]bool{}
		for _, s := range sched {
			if s.Kind == KindPlace {
				continue
			}
			if seen[s.Kind] {
				return fmt.Errorf("engine: %s schedules two %v stages in %v mode", g.name, s.Kind, m)
			}
			seen[s.Kind] = true
		}
	}
	return nil
}

// Run executes the graph for ep.Rank(): it derives the active mode from the
// resolved job spec, schedules the stages, and drives each one under the
// paper's synchronous-stage protocol — the stage body runs, its elapsed
// clock time is charged to Context.Times and reported to hooks, and a
// cluster-wide barrier follows so stages execute synchronously across
// nodes and per-stage times stay comparable (Section V-A). This is the one
// place a stage completion is measured. The returned Context carries the
// run's stage breakdown and transfer counters; its spill resources are
// already released.
func Run(ep transport.Endpoint, g *Graph, spec *job.Resolved, clock stats.Clock, hooks Hooks) (*Context, error) {
	mode := ModeOf(spec)
	sched, err := g.Schedule(mode)
	if err != nil {
		return nil, err
	}
	ctx := newContext(ep, spec, mode)
	defer ctx.cleanup()
	// Injected faults strike the first stage charged to their breakdown
	// column; of two faults on one column the first listed wins.
	faults := map[stats.Stage]job.FaultSpec{}
	for _, f := range spec.Faults {
		if st, err := stats.ParseStage(f.Stage); err == nil && f.Rank == ctx.Rank {
			if _, dup := faults[st]; !dup {
				faults[st] = f
			}
		}
	}
	for _, s := range sched {
		st, timed := s.Kind.Stats()
		if !timed {
			// Setup stages (file placement) run outside the measured
			// pipeline: no breakdown charge, no barrier, errors unwrapped.
			if err := s.Run(ctx); err != nil {
				return ctx, err
			}
			continue
		}
		// A kill exits before the body, hooks and barrier — a dead node
		// reports nothing, so detection is the supervisor's job, not the
		// scheduler's.
		fault, struck := faults[st]
		delete(faults, st)
		if struck && fault.Kind == job.FaultKill {
			return ctx, &KilledError{Rank: ctx.Rank, Stage: st}
		}
		t0 := clock.Now()
		serr := s.Run(ctx)
		if struck && serr == nil {
			// The straggler stalls before reporting the stage, so the
			// inflated Elapsed is what peers and the detection layer see.
			stall(fault, clock.Now()-t0)
		}
		elapsed := clock.Now() - t0
		ctx.Times[st] += elapsed
		if hooks != nil {
			hooks(StageEvent{Rank: ctx.Rank, Stage: st, Elapsed: elapsed, Err: serr})
		}
		if serr != nil {
			return ctx, fmt.Errorf("%s: rank %d %v stage: %w", g.name, ctx.Rank, st, serr)
		}
		if err := ep.Barrier(g.barrierTag(st)); err != nil {
			return ctx, fmt.Errorf("%s: rank %d barrier after %v: %w", g.name, ctx.Rank, st, err)
		}
	}
	return ctx, nil
}

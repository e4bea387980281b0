// Package engine is the execution runtime under the sort engine
// (internal/coded). The paper runs TeraSort and CodedTeraSort as one fixed,
// synchronous sequence of stages — CodeGen, Map, Pack/Encode, Shuffle,
// Unpack/Decode, Reduce (Section V-A) — and the runtime factors everything
// that is not placement, codec or shuffle topology out of the engine:
//
//   - A rank's schedule is a plain list of Stages, each naming the
//     breakdown column (stats.Stage) it is charged to; the sort engine
//     writes out one list per execution Mode, which ModeOf derives from
//     the resolved job spec (job.Resolved: ChunkRows/MemBudget).
//   - Run walks the list under the paper's synchronous-stage protocol:
//     each timed stage is charged to the run's stage breakdown
//     (Context.Times), reported to the Hooks and followed by a cluster
//     barrier. It also executes the spec's injected faults, refusing one
//     whose column the list never runs.
//   - Cross-cutting behaviors are runtime services on the Context: the
//     budget-bounded spill sorter lifecycle, transfer accounting, the
//     serial-vs-parallel sender schedule, and LIFO cleanups.
//   - The receive side of the pipelined modes' chunk streams is provided
//     once (ChunkRx) so the engine contributes only its codec callbacks;
//     the send side's credit window is transport.CreditGate.
package engine

import (
	"fmt"
	"slices"

	"codedterasort/internal/job"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
)

// Stage is one step of a rank's schedule.
type Stage struct {
	// Column is the breakdown column the stage is charged to, reported
	// under and struck at by a job.FaultSpec naming it. Pack/Encode and
	// Unpack/Decode share columns the way the paper's tables do.
	Column stats.Stage
	// Untimed marks setup (file placement) outside the measured pipeline:
	// it is not charged, reported, struck or followed by a barrier, and its
	// errors pass through unwrapped.
	Untimed bool
	// Run executes the stage body for this rank.
	Run func(*Context) error
}

// Run executes stages in order for ep.Rank() under the paper's
// synchronous-stage protocol: the stage body runs, its elapsed clock time
// is charged to Context.Times and reported to hooks, and a cluster-wide
// barrier, tagged in the barrierNS tag namespace, follows so stages execute
// synchronously across nodes and per-stage times stay comparable (Section
// V-A). This is the one place a stage completion is measured. The returned
// Context carries the run's stage breakdown and transfer counters; its
// spill resources are already released.
func Run(ep transport.Endpoint, stages []Stage, barrierNS uint8, spec *job.Resolved, clock stats.Clock, hooks Hooks) (*Context, error) {
	ctx := newContext(ep, spec, ModeOf(spec))
	defer ctx.cleanup()
	// Injected faults strike the first stage charged to their column; of
	// two faults on one column the first listed wins. A fault on a column
	// the schedule never runs would never fire, so it fails the run before
	// the first stage instead of passing for a recovery that never ran.
	faults := map[stats.Stage]job.FaultSpec{}
	for _, f := range spec.Faults {
		st, _ := stats.ParseStage(f.Stage) // Resolve refused unknown names
		if f.Rank != ctx.Rank {
			continue
		}
		if !slices.ContainsFunc(stages, func(s Stage) bool { return !s.Untimed && s.Column == st }) {
			return ctx, fmt.Errorf("engine: rank %d %s fault at %v, a stage the %v schedule never runs",
				ctx.Rank, f.Kind, st, ctx.Mode)
		}
		if _, dup := faults[st]; !dup {
			faults[st] = f
		}
	}
	for _, s := range stages {
		if s.Untimed {
			if err := s.Run(ctx); err != nil {
				return ctx, err
			}
			continue
		}
		st := s.Column
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
			return ctx, fmt.Errorf("engine: rank %d %v stage: %w", ctx.Rank, st, serr)
		}
		if err := ep.Barrier(transport.MakeTag(barrierNS, uint16(st), 0xFFFF)); err != nil {
			return ctx, fmt.Errorf("engine: rank %d barrier after %v: %w", ctx.Rank, st, err)
		}
	}
	return ctx, nil
}

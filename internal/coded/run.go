package coded

import (
	"fmt"
	"slices"
	"time"

	"codedterasort/internal/extsort"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
)

// stage is one step of a rank's schedule.
type stage struct {
	// column is the breakdown column the stage is charged to, reported
	// under and struck at by a job.FaultSpec naming it. Pack/Encode and
	// Unpack/Decode share columns the way the paper's tables do.
	column stats.Stage
	// untimed marks setup (file placement) outside the measured pipeline:
	// it is not charged, reported, struck or followed by a barrier, and its
	// errors pass through unwrapped.
	untimed bool
	// run is the stage body; it reads and writes the worker.
	run func() error
}

// StageEvent reports one completed timed stage to the hooks.
type StageEvent struct {
	// Rank is the node that ran the stage.
	Rank int
	// Stage is the breakdown column the stage is charged to.
	Stage stats.Stage
	// Elapsed is the stage's clock time (wall or injected, whichever clock
	// drives the run) — exactly what the run charged to Summary.Times.
	Elapsed time.Duration
	// Err is the stage body's error, nil on success.
	Err error
}

// Hooks observes stage execution: the run calls it after each timed stage's
// body returns (before the post-stage barrier), once the stage is charged to
// Summary.Times. The cluster runtime's stage log, the straggler monitor and
// the TCP worker's progress frames all ride this one callback. May be nil.
type Hooks func(StageEvent)

// KilledError reports a rank that died at a stage: the injected-death
// counterpart of a worker process crash (job.FaultKill). The run returns it
// without firing stage hooks or the stage barrier — a dead node reports
// nothing — so supervisors must treat it like a vanished process: cancel the
// attempt (unblocking the peers stuck at the dead rank's barrier) and
// respawn.
type KilledError struct {
	Rank  int
	Stage stats.Stage
}

// Error implements error.
func (e *KilledError) Error() string {
	return fmt.Sprintf("coded: rank %d killed at %v stage", e.Rank, e.Stage)
}

// run walks stages, the schedule named schedule, for this rank under the
// paper's synchronous-stage protocol: the stage body runs, its elapsed clock
// time is charged to Summary.Times and reported to the Hooks, and a
// cluster-wide barrier follows so stages execute synchronously across nodes
// and per-stage times stay comparable (Section V-A). This is the one place a
// stage completion is measured. It also executes the spec's injected faults,
// refusing one whose column the schedule never runs, and releases the run's
// resources (the cleanups, last registered first) whichever way it ends.
func (w *worker) run(clock stats.Clock, schedule string, stages []stage) error {
	defer func() {
		for i := len(w.cleanups) - 1; i >= 0; i-- {
			w.cleanups[i]()
		}
		w.cleanups = nil
	}()
	// Injected faults strike the first stage charged to their column; of
	// two faults on one column the first listed wins. A fault on a column
	// the schedule never runs would never fire, so it fails the run before
	// the first stage instead of passing for a recovery that never ran.
	faults := map[stats.Stage]job.FaultSpec{}
	for _, f := range w.spec.Faults {
		st, _ := stats.ParseStage(f.Stage) // Resolve refused unknown names
		if f.Rank != w.rank {
			continue
		}
		if !slices.ContainsFunc(stages, func(s stage) bool { return !s.untimed && s.column == st }) {
			return fmt.Errorf("coded: rank %d %s fault at %v, a stage the %s schedule never runs",
				w.rank, f.Kind, st, schedule)
		}
		if _, dup := faults[st]; !dup {
			faults[st] = f
		}
	}
	for _, s := range stages {
		if s.untimed {
			if err := s.run(); err != nil {
				return err
			}
			continue
		}
		st := s.column
		// A kill exits before the body, hooks and barrier — a dead node
		// reports nothing, so detection is the supervisor's job.
		fault, struck := faults[st]
		delete(faults, st)
		if struck && fault.Kind == job.FaultKill {
			return &KilledError{Rank: w.rank, Stage: st}
		}
		t0 := clock.Now()
		serr := s.run()
		if struck && serr == nil {
			// The straggler stalls before reporting the stage, so the
			// inflated Elapsed is what peers and the detection layer see.
			stall(fault, clock.Now()-t0, w.spec.Done)
		}
		elapsed := clock.Now() - t0
		w.result.Times[st] += elapsed
		if w.cfg.Hooks != nil {
			w.cfg.Hooks(StageEvent{Rank: w.rank, Stage: st, Elapsed: elapsed, Err: serr})
		}
		if serr != nil {
			return fmt.Errorf("coded: rank %d %v stage: %w", w.rank, st, serr)
		}
		if err := w.ep.Barrier(transport.MakeTag(tagBarrier, uint16(st), 0xFFFF)); err != nil {
			return fmt.Errorf("coded: rank %d barrier after %v: %w", w.rank, st, err)
		}
	}
	if sp, ok := w.part.(partition.Splitters); ok {
		w.result.SplitterBounds = sp.Bounds()
	}
	w.result.ChunksReceived = w.chunksReceived.Load()
	return nil
}

// stall blocks a job.FaultSlow rank after a stage body: the proportional
// part models a node computing at 1/Factor speed (values at or below 1 add
// nothing), the fixed part makes tests deterministic. It runs in wall time
// — fault injection is a live-runtime feature; the virtual-time simulator
// models stragglers analytically — and ends early once abandoned closes
// (job.Local.Done): a stalled rank of a canceled attempt returns with it.
func stall(f job.FaultSpec, elapsed time.Duration, abandoned <-chan struct{}) {
	d := f.Delay
	if f.Factor > 1 {
		d += time.Duration(float64(elapsed) * (f.Factor - 1))
	}
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-abandoned:
	}
}

// spillSorter returns the run's budget-bounded spill sorter, creating it on
// first use: half the MemBudget (at least a byte) bounds its buffer, the
// other half is for merge cursors, spools and chunks; its runs sort on procs
// goroutines; and it is removed with its directory when the run ends, under
// the mutex of the receivers that may still be appending.
func (w *worker) spillSorter() (*extsort.Sorter, error) {
	if w.sorter != nil {
		return w.sorter, nil
	}
	s, err := extsort.NewSorter(w.spec.SpillDir, max(w.spec.MemBudget/2, 1))
	if err != nil {
		return nil, err
	}
	s.SetParallelism(w.procs)
	w.sorter = s
	w.cleanups = append(w.cleanups, func() { w.sorterMu.Lock(); defer w.sorterMu.Unlock(); s.Close() })
	return s, nil
}

// spillAppend appends recs to the spill sorter under the receive-side
// mutex, serializing the concurrent per-stream receive goroutines. The
// sorter must already exist (the out-of-core Map makes it before any
// shuffling).
func (w *worker) spillAppend(recs kv.Records) error {
	w.sorterMu.Lock()
	defer w.sorterMu.Unlock()
	if w.sorter == nil {
		return fmt.Errorf("coded: spillAppend before the spill sorter exists")
	}
	return w.sorter.Append(recs)
}

// inTurn runs send under the job's sender schedule: immediately when
// ParallelShuffle lifts the serial order, else one rank at a time with the
// token passed in rank order (the paper's Fig 9 serial schedule).
func (w *worker) inTurn(send func() error) error {
	if w.spec.ParallelShuffle {
		return send()
	}
	return transport.SerialOrder(w.ep, transport.MakeTag(tagToken, 0, 0), send)
}

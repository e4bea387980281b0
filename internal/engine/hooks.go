package engine

import (
	"time"

	"codedterasort/internal/stats"
)

// StageEvent reports one completed timed stage to the hooks.
type StageEvent struct {
	// Rank is the node that ran the stage.
	Rank int
	// Stage is the breakdown column the stage is charged to.
	Stage stats.Stage
	// Elapsed is the stage's clock time (wall or injected, whichever clock
	// drives the run) — exactly what the scheduler charged to
	// Context.Times.
	Elapsed time.Duration
	// Err is the stage body's error, nil on success.
	Err error
}

// Hooks observes stage execution: the runtime calls it after each timed
// stage's body returns (before the post-stage barrier), once the stage is
// charged to Context.Times. The cluster runtime's stage log, the straggler
// monitor and the TCP worker's progress frames all ride this one callback.
// May be nil.
type Hooks func(StageEvent)

package engine

import (
	"fmt"
	"time"

	"codedterasort/internal/job"
	"codedterasort/internal/stats"
)

// KilledError reports a rank that died at a stage: the injected-death
// counterpart of a worker process crash (job.FaultKill). The scheduler
// returns it without firing stage hooks or the stage barrier — a dead node
// reports nothing — so supervisors must treat it like a vanished process:
// cancel the attempt (unblocking the peers stuck at the dead rank's
// barrier) and respawn.
type KilledError struct {
	Rank  int
	Stage stats.Stage
}

// Error implements error.
func (e *KilledError) Error() string {
	return fmt.Sprintf("engine: rank %d killed at %v stage", e.Rank, e.Stage)
}

// stall blocks a job.FaultSlow rank after a stage body: the proportional
// part models a node computing at 1/Factor speed (values at or below 1 add
// nothing), the fixed part makes tests deterministic. It runs in wall time
// — fault injection is a live-runtime feature; the virtual-time simulator
// models stragglers analytically.
func stall(f job.FaultSpec, elapsed time.Duration) {
	d := f.Delay
	if f.Factor > 1 {
		d += time.Duration(float64(elapsed) * (f.Factor - 1))
	}
	if d > 0 {
		time.Sleep(d)
	}
}

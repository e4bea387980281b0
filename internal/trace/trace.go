// Package trace is the cluster-wide stage log: every node's completed
// stages, as the engine runtime's per-stage hook reports them, stamped
// against a shared clock and tagged with the recovery attempt they ran
// under, plus the per-stage rollup a metrics endpoint exposes.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"codedterasort/internal/stats"
)

// StageRecord is one node's completed stage execution, reported through
// the engine runtime's per-stage hook.
type StageRecord struct {
	// At is the clock time at stage completion.
	At time.Duration
	// Attempt is the recovery attempt the stage ran under (1 for a job's
	// first execution; higher after straggler/failure re-execution).
	Attempt int
	// Node is the rank that ran the stage.
	Node int
	// Stage is the breakdown column the stage was charged to.
	Stage stats.Stage
	// Elapsed is the stage's measured duration.
	Elapsed time.Duration
	// Err is the stage error text ("" = success).
	Err string
}

// String renders the record as one log line.
func (r StageRecord) String() string {
	s := fmt.Sprintf("%12v node %2d stage %-13s %12v", r.At, r.Node, r.Stage, r.Elapsed)
	if r.Attempt > 1 {
		s += fmt.Sprintf("  attempt %d", r.Attempt)
	}
	if r.Err != "" {
		s += "  ERR " + r.Err
	}
	return s
}

// StageLog collects StageRecords from several nodes against a shared
// clock. It is the sink the cluster runtime wires into the engines'
// per-stage hook, in process and from TCP workers' progress frames alike.
type StageLog struct {
	clock stats.Clock

	mu       sync.Mutex
	records  []StageRecord
	observer func(StageRecord)
}

// NewStageLog returns an empty log stamping records with clock.
func NewStageLog(clock stats.Clock) *StageLog {
	return &StageLog{clock: clock}
}

// Observe registers fn to receive every record as it is appended, after
// the log's own bookkeeping. It is how live consumers (job status, metrics
// exposition) ride the same hook as the log without a second wiring path.
// fn runs on the recording goroutine, outside the log's lock.
func (l *StageLog) Observe(fn func(StageRecord)) {
	l.mu.Lock()
	l.observer = fn
	l.mu.Unlock()
}

// Record appends one completed stage, run under the given recovery
// attempt: the cluster supervisor passes each attempt's number, so one log
// holds the whole recovery timeline (the failed attempts' partial records
// included). Safe for concurrent use by all worker goroutines of an
// in-process cluster.
func (l *StageLog) Record(attempt, node int, stage stats.Stage, elapsed time.Duration, err error) {
	msg := ""
	if err != nil {
		msg = err.Error()
	}
	l.mu.Lock()
	rec := StageRecord{
		At: l.clock.Now(), Attempt: attempt, Node: node, Stage: stage, Elapsed: elapsed, Err: msg,
	}
	l.records = append(l.records, rec)
	observer := l.observer
	l.mu.Unlock()
	if observer != nil {
		observer(rec)
	}
}

// Records returns a snapshot in completion order (ties in record order).
func (l *StageLog) Records() []StageRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := append([]StageRecord(nil), l.records...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// StageTotal aggregates the executions of one stage across nodes, jobs and
// recovery attempts: run/error counts and summed stage seconds.
type StageTotal struct {
	// Runs counts completed executions (errored ones included).
	Runs int64
	// Errors counts executions that ended in a stage error.
	Errors int64
	// Seconds is the summed elapsed time of all runs.
	Seconds float64
}

// StageTotals is the per-stage rollup of a stage timeline — the
// exposition-friendly form behind a metrics endpoint, where individual
// records would be unbounded but per-stage counters are not.
type StageTotals map[stats.Stage]StageTotal

// Add folds one record into the totals.
func (t StageTotals) Add(rec StageRecord) {
	tot := t[rec.Stage]
	tot.Runs++
	if rec.Err != "" {
		tot.Errors++
	}
	tot.Seconds += rec.Elapsed.Seconds()
	t[rec.Stage] = tot
}

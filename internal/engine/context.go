package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"codedterasort/internal/extsort"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/parallel"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
)

// Counters is the runtime's transfer accounting, fed by the shuffle stages
// and read by the engines after the run. The send-side fields are owned by
// the single sending goroutine; the receive side is concurrent (one
// goroutine per inbound stream) and counts atomically.
type Counters struct {
	// SentBytes counts shuffle payload bytes this node pushed (each
	// multicast packet counted once — the paper's communication-load
	// metric). In pipelined modes it includes the per-chunk framing.
	SentBytes int64
	// SentOps counts shuffle send operations (coded packets for the
	// multicast engine).
	SentOps int64
	// ChunksSent counts pipelined chunks shipped (zero in ModeMono).
	ChunksSent int64

	chunksReceived atomic.Int64
}

// ChunkReceived counts one consumed inbound chunk; safe for the concurrent
// per-stream receive goroutines.
func (c *Counters) ChunkReceived() { c.chunksReceived.Add(1) }

// ChunksReceived returns the inbound chunk total.
func (c *Counters) ChunksReceived() int64 { return c.chunksReceived.Load() }

// Context is the per-run state the scheduler hands to every stage: the
// endpoint, the resolved job spec, and the runtime services (spill sorter,
// transfer counters, sender scheduling, cleanups).
type Context struct {
	// Ep is this node's transport endpoint.
	Ep transport.Endpoint
	// Rank identifies this node among the job's Spec.K.
	Rank int
	// Mode is the active execution mode.
	Mode Mode
	// Spec is the resolved job description.
	Spec *job.Resolved
	// Procs is the resolved Parallelism for the compute hot paths.
	Procs int
	// Counters is the run's transfer accounting.
	Counters Counters
	// Times is the run's stage breakdown: the scheduler charges each timed
	// stage's elapsed time to its column, errored stages included.
	Times stats.Breakdown

	sorter   *extsort.Sorter
	sorterMu sync.Mutex
	cleanups []func()
}

func newContext(ep transport.Endpoint, spec *job.Resolved, mode Mode) *Context {
	return &Context{Ep: ep, Rank: ep.Rank(), Mode: mode, Spec: spec,
		Procs: parallel.Resolve(spec.Parallelism)}
}

// Sorter returns the run's budget-bounded spill sorter, creating it on
// first use: half the MemBudget (at least a byte) bounds its buffer, the
// other half is for merge cursors, spools and chunks; its runs sort on
// Procs goroutines; and it is removed with its directory when the run
// ends, under the mutex of the receivers that may still be appending.
func (ctx *Context) Sorter() (*extsort.Sorter, error) {
	if ctx.sorter != nil {
		return ctx.sorter, nil
	}
	s, err := extsort.NewSorter(ctx.Spec.SpillDir, max(ctx.Spec.MemBudget/2, 1))
	if err != nil {
		return nil, err
	}
	s.SetParallelism(ctx.Procs)
	ctx.sorter = s
	ctx.Defer(func() { ctx.sorterMu.Lock(); defer ctx.sorterMu.Unlock(); s.Close() })
	return s, nil
}

// SpillAppend appends recs to the spill sorter under the receive-side
// mutex, serializing the concurrent per-stream receive goroutines. The
// sorter must already exist (a Map-stage Sorter call precedes all
// shuffling in the spill schedules).
func (ctx *Context) SpillAppend(recs kv.Records) error {
	ctx.sorterMu.Lock()
	defer ctx.sorterMu.Unlock()
	if ctx.sorter == nil {
		return fmt.Errorf("engine: SpillAppend before the spill sorter exists")
	}
	return ctx.sorter.Append(recs)
}

// Defer registers fn to run when the run ends (LIFO, like defer), whether
// it completed or failed — the hook for stage-created resources such as
// shuffle spools.
func (ctx *Context) Defer(fn func()) { ctx.cleanups = append(ctx.cleanups, fn) }

// Schedule runs send under the job's sender schedule: immediately when
// ParallelShuffle lifts the serial order, else one rank at a time with the
// token passed under tokenTag (the paper's Fig 9 serial schedule).
func (ctx *Context) Schedule(tokenTag transport.Tag, send func() error) error {
	if ctx.Spec.ParallelShuffle {
		return send()
	}
	return transport.SerialOrder(ctx.Ep, tokenTag, send)
}

func (ctx *Context) cleanup() {
	for i := len(ctx.cleanups) - 1; i >= 0; i-- {
		ctx.cleanups[i]()
	}
	ctx.cleanups = nil
}

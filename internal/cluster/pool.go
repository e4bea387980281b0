package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrPoolClosed reports an operation against a closed Pool.
var ErrPoolClosed = errors.New("cluster: pool closed")

// Pool is a bounded set of reusable rank executors shared by many
// concurrent in-process jobs — the warm worker pool behind the sortd
// service. Each executor is one long-lived goroutine; a job reserves K of
// them, runs every rank lifecycle (across all recovery attempts) on the
// reservation, and releases it, so concurrent jobs can never oversubscribe
// the machine and rank goroutines are reused instead of cold-started per
// job. Executors are rank-agnostic: the per-job memnet mesh is the rank
// namespace, so two jobs both running a rank 0 never collide.
type Pool struct {
	slots int
	tasks chan func()

	mu     sync.Mutex
	cond   *sync.Cond
	free   int
	closed bool

	wg    sync.WaitGroup
	jobs  atomic.Int64
	ranks atomic.Int64
}

// NewPool starts a pool of slots executors. slots below 1 is raised to 1.
func NewPool(slots int) *Pool {
	if slots < 1 {
		slots = 1
	}
	p := &Pool{
		slots: slots,
		free:  slots,
		// Buffered to the slot count so a lease holder's submit never
		// blocks on executor handoff: reservation guarantees at most slots
		// tasks are ever outstanding.
		tasks: make(chan func(), slots),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < slots; i++ {
		p.wg.Add(1)
		go p.executor()
	}
	return p
}

// executor is one reusable rank lifecycle host. A task is counted as it
// starts: its ranks report the job's completion from inside it, so a count
// taken after task() returned could still be missing when the job's Run
// returns and the caller reads Stats.
func (p *Pool) executor() {
	defer p.wg.Done()
	for task := range p.tasks {
		p.ranks.Add(1)
		task()
	}
}

// Lease is a claim on k executors, held for the duration of one job.
type Lease struct {
	pool    *Pool
	k       int
	release sync.Once
}

// Reserve blocks until k executors are free, claims them, and returns the
// lease. It returns ctx's error if the context is done first, or
// ErrPoolClosed if the pool closes while waiting. Reservation is
// all-or-nothing, so two jobs can never deadlock each other by holding
// partial claims.
func (p *Pool) Reserve(ctx context.Context, k int) (*Lease, error) {
	if k < 1 || k > p.slots {
		return nil, fmt.Errorf("cluster: cannot reserve %d of %d pool slots", k, p.slots)
	}
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.free < k && !p.closed && ctx.Err() == nil {
		p.cond.Wait()
	}
	if p.closed {
		return nil, ErrPoolClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.free -= k
	return &Lease{pool: p, k: k}, nil
}

// TryReserve claims k executors without blocking. It reports false when
// fewer than k are free right now (or the pool is closed); callers that
// can wait for capacity should watch their own completion signal and
// retry, re-deciding which job deserves the slots each time.
func (p *Pool) TryReserve(k int) (*Lease, bool) {
	if k < 1 || k > p.slots {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || p.free < k {
		return nil, false
	}
	p.free -= k
	return &Lease{pool: p, k: k}, true
}

// Release returns the lease's executors to the pool. It is idempotent and
// must not be called before the lease's job has returned.
func (l *Lease) Release() {
	l.release.Do(func() {
		p := l.pool
		p.mu.Lock()
		p.free += l.k
		p.cond.Broadcast()
		p.mu.Unlock()
	})
}

// Run executes the job on the lease's executors: RunLocalOpts with every
// rank lifecycle submitted to the pool instead of spawned fresh. A spec
// whose K exceeds the lease multiplexes logical ranks: each executor hosts
// ceil(K / lease) rank goroutines, which is what lets K=64-128 jobs run on
// a pool of a few executors. Ranks block on the in-memory transport, never
// on executor slots, so the multiplexing cannot deadlock.
func (l *Lease) Run(ctx context.Context, spec Spec, opts Options) (*JobReport, error) {
	if spec.K > l.k {
		opts.mux = (spec.K + l.k - 1) / l.k
	}
	opts.spawn = func(task func()) { l.pool.tasks <- task }
	l.pool.jobs.Add(1)
	return RunLocalOpts(ctx, spec, opts)
}

// Run reserves executors for the spec (blocking until they are free), runs
// the job on them, and releases the reservation — the one-call form for
// callers without their own admission ordering. A spec whose K exceeds the
// pool reserves the whole pool and multiplexes logical ranks over it.
func (p *Pool) Run(ctx context.Context, spec Spec, opts Options) (*JobReport, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	want := spec.K
	if want > p.slots {
		want = p.slots
	}
	lease, err := p.Reserve(ctx, want)
	if err != nil {
		return nil, err
	}
	defer lease.Release()
	return lease.Run(ctx, spec, opts)
}

// PoolStats is a point-in-time pool summary.
type PoolStats struct {
	// Slots is the executor count; Free how many are unreserved right now.
	Slots, Free int
	// Jobs counts jobs started on the pool; Ranks counts executor tasks
	// started (one per attempt per executor batch — K per attempt when
	// ranks are not multiplexed), all of them in by the time the job's Run
	// returns — Ranks exceeding Slots is the executor-reuse evidence.
	Jobs, Ranks int64
}

// Stats reports the pool's occupancy and lifetime counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	free := p.free
	closed := p.closed
	p.mu.Unlock()
	if closed {
		free = 0
	}
	return PoolStats{Slots: p.slots, Free: free, Jobs: p.jobs.Load(), Ranks: p.ranks.Load()}
}

// Close shuts the executors down and waits for them to exit. All leases
// must be released (their jobs returned) first; reservations blocked in
// Reserve return ErrPoolClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.tasks)
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

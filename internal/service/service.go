// Package service is the long-lived serving layer over the cluster
// runtime: a daemon (cmd/sortd) accepting many concurrent sort jobs from
// many tenants over an HTTP JSON API against one shared, bounded worker
// pool. It owns what the one-shot coordinator never needed: a priority
// job queue with per-tenant admission control (internal/service/tenant),
// job-scoped spill namespaces so concurrent out-of-core jobs never
// collide on disk, a Prometheus-style /metrics exposition of the stage
// timeline and transfer counters, and graceful drain (stop admission,
// let running jobs finish, checkpoint-cancel the stragglers after a
// timeout via the supervisor's attempt cancelation).
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"codedterasort/internal/cluster"
	"codedterasort/internal/service/tenant"
	"codedterasort/internal/trace"
)

// Service-level admission errors (tenant-level ones live in the tenant
// package).
var (
	// ErrDraining reports a submission to a draining or stopped server.
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrBacklogFull reports the global queued-jobs cap.
	ErrBacklogFull = errors.New("service: job backlog full")
	// ErrUnknownJob reports a job ID lookup miss.
	ErrUnknownJob = errors.New("service: unknown job")
)

// Config describes a Server. The zero value works: defaults are applied
// by New.
type Config struct {
	// PoolSlots is the shared worker pool size — the total rank
	// goroutines all concurrent jobs may hold at once. Default 8.
	PoolSlots int
	// MaxQueue caps jobs queued across all tenants (0 = 64).
	MaxQueue int
	// SpillRoot is the base directory for job-scoped spill namespaces
	// ("" = the system temp directory). Every out-of-core job spills
	// under its own SpillRoot/sortd-<jobID>/ and the directory is removed
	// when the job finishes.
	SpillRoot string
	// Tenants is the admission-control registry (nil = a fresh registry
	// with permissive defaults).
	Tenants *tenant.Registry
	// DrainTimeout bounds how long Drain waits for running jobs before
	// checkpoint-canceling them through the supervisor (0 = 60s).
	DrainTimeout time.Duration
	// Now is the admission clock (nil = time.Now); tests inject it to
	// make rate-limit decisions deterministic.
	Now func() time.Time
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.PoolSlots <= 0 {
		c.PoolSlots = 8
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 64
	}
	if c.Tenants == nil {
		c.Tenants = tenant.NewRegistry(tenant.Limits{})
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 60 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// SubmitRequest is the POST /v1/jobs body: who is asking, and what job.
type SubmitRequest struct {
	Tenant string       `json:"tenant"`
	Spec   cluster.Spec `json:"spec"`
}

// Server is the multi-tenant sort service: one shared executor pool, one
// priority queue, one dispatcher.
type Server struct {
	cfg     Config
	tenants *tenant.Registry
	pool    *cluster.Pool
	start   time.Time

	// jobsCtx checkpoint-cancels running jobs at drain timeout (or
	// immediately on Close).
	jobsCtx    context.Context
	cancelJobs context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	order    []*job
	queue    jobQueue
	seq      int64
	draining bool
	totals   totals

	stageMu     sync.Mutex
	stageTotals trace.StageTotals

	jobWG          sync.WaitGroup
	dispatcherDone chan struct{}
	drainOnce      sync.Once
	drained        chan struct{}
	forced         bool
}

// totals are the service-lifetime transfer and recovery counters fed by
// finished jobs, exposed on /metrics.
type totals struct {
	shuffleLoadBytes int64
	wireBytes        int64
	spilledRuns      int64
	spilledRawBytes  int64
	spilledDiskBytes int64
	mergeOVCDecided  int64
	mergeFullCmps    int64
	chunksShuffled   int64
	attempts         int64
	recoveredFaults  int64
}

// New starts a server: the pool's executors and the dispatcher begin
// immediately; jobs flow once Submit is called.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:            cfg,
		tenants:        cfg.Tenants,
		pool:           cluster.NewPool(cfg.PoolSlots),
		start:          cfg.Now(),
		jobs:           map[string]*job{},
		stageTotals:    trace.StageTotals{},
		dispatcherDone: make(chan struct{}),
		drained:        make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.jobsCtx, s.cancelJobs = context.WithCancel(context.Background())
	go s.dispatch()
	return s
}

// Pool exposes the shared pool's occupancy for metrics and tests.
func (s *Server) Pool() cluster.PoolStats { return s.pool.Stats() }

// Submit admits one job: validation, tenant rate/queue admission, global
// backlog cap, then the priority queue. It returns the queued job's
// status; the job runs when the dispatcher reaches it.
func (s *Server) Submit(req SubmitRequest) (JobStatus, error) {
	if req.Tenant == "" {
		return JobStatus{}, errors.New("service: missing tenant")
	}
	if err := req.Spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	if req.Spec.KeepOutput {
		return JobStatus{}, errors.New("service: KeepOutput jobs are not served (partitions are summarized, not shipped)")
	}
	// Jobs whose K exceeds the pool are admitted anyway: the lease
	// multiplexes logical ranks over the whole pool (see cluster.Lease.Run),
	// which is how K=64-128 jobs run on a machine-sized executor pool.
	tn := s.tenants.Get(req.Tenant)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	if s.queue.Len() >= s.cfg.MaxQueue {
		return JobStatus{}, fmt.Errorf("%w (%d jobs queued)", ErrBacklogFull, s.queue.Len())
	}
	if err := tn.Admit(s.cfg.Now()); err != nil {
		return JobStatus{}, err
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.seq),
		tenant:    req.Tenant,
		priority:  tn.Limits().Priority,
		seq:       s.seq,
		spec:      req.Spec,
		state:     StateQueued,
		submitted: s.cfg.Now(),
		done:      make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.queue.add(j)
	s.cond.Signal()
	return j.status(), nil
}

// dispatch is the scheduler loop: highest-priority eligible job first,
// all-or-nothing pool reservation, strict head-of-line within the
// eligible set (a large job at the head waits for slots; smaller jobs
// behind it wait for their turn). Reservation is non-blocking with a
// re-queue on contention, so the head of the line is re-chosen every
// time capacity frees — a high-priority job arriving while a
// lower-priority one waits for slots still goes first.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	for {
		s.mu.Lock()
		var j *job
		var lease *cluster.Lease
		for {
			if s.draining {
				s.mu.Unlock()
				return
			}
			if j = s.queue.popEligible(func(j *job) bool { return s.tenants.Get(j.tenant).CanRun() }); j != nil {
				want := j.spec.K
				if want > s.cfg.PoolSlots {
					// Oversized jobs take the whole pool and multiplex
					// logical ranks over it.
					want = s.cfg.PoolSlots
				}
				var ok bool
				if lease, ok = s.pool.TryReserve(want); ok {
					break
				}
				// The best job does not fit yet: leave it queued and wait
				// for a finishing job's broadcast rather than starting
				// smaller work ahead of it.
				s.queue.add(j)
			}
			s.cond.Wait()
		}
		s.mu.Unlock()
		s.startJob(j)
		s.jobWG.Add(1)
		go s.runJob(j, lease)
	}
}

// startJob marks j running and assigns its spill namespace.
func (s *Server) startJob(j *job) {
	s.mu.Lock()
	j.state = StateRunning
	j.started = s.cfg.Now()
	if j.spec.MemBudget > 0 {
		base := j.spec.SpillDir
		if base == "" {
			base = s.cfg.SpillRoot
		}
		if base == "" {
			base = os.TempDir()
		}
		// The job-scoped namespace: concurrent out-of-core jobs spill
		// into disjoint directories even when tenants share a base.
		dir := filepath.Join(base, "sortd-"+j.id)
		if err := os.MkdirAll(dir, 0o755); err == nil {
			j.spec.SpillDir = dir
			j.spillDir = dir
		}
	}
	s.mu.Unlock()
	s.tenants.Get(j.tenant).JobStarted()
}

// runJob executes one dispatched job on its lease and retires it.
func (s *Server) runJob(j *job, lease *cluster.Lease) {
	defer s.jobWG.Done()
	opts := cluster.Options{OnStage: func(rec trace.StageRecord) { s.observeStage(j, rec) }}
	s.mu.Lock()
	spec := j.spec
	s.mu.Unlock()
	rep, err := lease.Run(s.jobsCtx, spec, opts)
	lease.Release()
	if j.spillDir != "" {
		os.RemoveAll(j.spillDir)
	}

	outcome := tenant.Completed
	state := StateDone
	switch {
	case err == nil && rep.Attempts > 1:
		outcome = tenant.CompletedRecovered
	case err == nil:
	case errors.Is(err, context.Canceled):
		outcome, state = tenant.Canceled, StateCanceled
	default:
		outcome, state = tenant.Failed, StateFailed
	}

	// Tenant accounting first: a waiter released by j.done below must find
	// the job already counted.
	s.tenants.Get(j.tenant).JobFinished(outcome)
	s.mu.Lock()
	j.state = state
	j.finished = s.cfg.Now()
	j.report = rep
	if err != nil {
		j.errText = err.Error()
	}
	if rep != nil {
		s.totals.shuffleLoadBytes += rep.ShuffleLoadBytes
		s.totals.wireBytes += rep.WireBytes
		s.totals.spilledRuns += rep.SpilledRuns
		s.totals.spilledRawBytes += rep.Spill.RawBytes
		s.totals.spilledDiskBytes += rep.Spill.DiskBytes
		s.totals.mergeOVCDecided += rep.MergeOVCDecided
		s.totals.mergeFullCmps += rep.MergeFullCompares
		s.totals.chunksShuffled += rep.ChunksShuffled
		s.totals.attempts += int64(rep.Attempts)
		s.totals.recoveredFaults += int64(len(rep.Recovered))
	}
	close(j.done)
	// A finished job may free a tenant's running cap: wake the dispatcher.
	s.cond.Broadcast()
	s.mu.Unlock()
}

// finishUnstarted retires a queued job that will never run (drain).
func (s *Server) finishUnstarted(j *job, err error) {
	s.mu.Lock()
	j.state = StateCanceled
	j.finished = s.cfg.Now()
	j.errText = fmt.Sprintf("canceled before start: %v", err)
	close(j.done)
	s.mu.Unlock()
	s.tenants.Get(j.tenant).JobDequeued()
}

// observeStage feeds the live per-stage rollup and the job's progress.
func (s *Server) observeStage(j *job, rec trace.StageRecord) {
	s.stageMu.Lock()
	s.stageTotals.Add(rec)
	s.stageMu.Unlock()
	s.mu.Lock()
	j.stagesDone++
	j.lastStage = rec.Stage.String()
	if rec.Attempt > j.attempts {
		j.attempts = rec.Attempt
	}
	s.mu.Unlock()
}

// Job returns one job's status.
func (s *Server) Job(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	return j.status(), nil
}

// WaitJob blocks until the job reaches a terminal state (or ctx is done)
// and returns its status.
func (s *Server) WaitJob(ctx context.Context, id string) (JobStatus, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return JobStatus{}, fmt.Errorf("%w %q", ErrUnknownJob, id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
	}
	return s.Job(id)
}

// Jobs lists jobs in submission order, optionally filtered by tenant.
func (s *Server) Jobs(tenantFilter string) []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, j := range s.order {
		if tenantFilter != "" && j.tenant != tenantFilter {
			continue
		}
		out = append(out, j.status())
	}
	return out
}

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drained is closed when a drain has fully completed (pool shut down).
func (s *Server) Drained() <-chan struct{} { return s.drained }

// Drain gracefully stops the server: admission stops immediately, queued
// jobs are canceled, running jobs get DrainTimeout to finish, then are
// checkpoint-canceled through the supervisor (the attempt's mesh closes
// and every rank unwinds promptly). Drain blocks until the pool is shut
// down; it is idempotent and concurrent-safe, and reports whether any
// running job had to be force-canceled.
func (s *Server) Drain() (forced bool) {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		canceled := s.queue.drain()
		s.cond.Broadcast()
		s.mu.Unlock()
		<-s.dispatcherDone
		for _, j := range canceled {
			s.finishUnstarted(j, ErrDraining)
		}

		running := make(chan struct{})
		go func() {
			s.jobWG.Wait()
			close(running)
		}()
		timer := time.NewTimer(s.cfg.DrainTimeout)
		defer timer.Stop()
		select {
		case <-running:
		case <-timer.C:
			s.forced = true
			s.cancelJobs()
			<-running
		}
		s.cancelJobs()
		s.pool.Close()
		close(s.drained)
	})
	<-s.drained
	return s.forced
}

// Close force-stops the server: running jobs are checkpoint-canceled
// immediately, then the drain path runs. For tests and fatal shutdown.
func (s *Server) Close() {
	s.cancelJobs()
	s.Drain()
}

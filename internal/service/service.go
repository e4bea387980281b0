// Package service is the long-lived serving layer over the cluster
// runtime: a daemon (cmd/sortd) accepting many concurrent sort jobs from
// many tenants over an HTTP JSON API against one machine-wide count of rank
// slots. It owns what the one-shot coordinator never needed: a priority
// job queue with per-tenant admission control (token-bucket rate limits,
// queue and running caps, priorities), job-scoped spill namespaces so
// concurrent out-of-core jobs never collide on disk, a Prometheus-style
// /metrics exposition of the stage timeline and transfer counters, and
// graceful drain (stop admission, let running jobs finish,
// checkpoint-cancel the stragglers after a timeout via the supervisor's
// attempt cancelation). One job table under one lock is the service's
// only record: every job count on /metrics is read off it.
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
	"codedterasort/internal/trace"
)

// Service-level admission errors (a tenant's own are in admission.go).
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
	// PoolSlots is the count of rank slots all concurrent jobs share. A
	// running job holds min(K, PoolSlots) of them: a job whose K exceeds
	// PoolSlots takes every slot and still runs all K ranks. Default 8.
	PoolSlots int
	// MaxQueue caps jobs queued across all tenants (0 = 64).
	MaxQueue int
	// SpillRoot is the base directory for job-scoped spill namespaces
	// ("" = the system temp directory). Every out-of-core job spills
	// under its own SpillRoot/sortd-<jobID>/ and the directory is removed
	// when the job finishes.
	SpillRoot string
	// Tenants gives the named tenants their admission limits (each valid
	// under Limits.Validate). A tenant not named here is admitted with the
	// zero, permissive Limits on its first submission.
	Tenants map[string]Limits
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

// Server is the multi-tenant sort service: one count of rank slots, one
// priority queue, one dispatcher. Every job runs through
// cluster.RunLocalOpts once the dispatcher has reserved its slots.
type Server struct {
	cfg   Config
	start time.Time

	// jobsCtx checkpoint-cancels running jobs at drain timeout (or
	// immediately on Close).
	jobsCtx    context.Context
	cancelJobs context.CancelFunc

	// mu guards the job table — jobs, their order, the queue and the
	// running set — and the tenants and stage rollup beside it.
	mu       sync.Mutex
	cond     *sync.Cond
	tenants  map[string]*tenant
	jobs     map[string]*job
	order    []*job
	queue    jobQueue
	running  jobQueue
	stages   trace.StageTotals
	seq      int64
	draining bool

	jobWG          sync.WaitGroup
	dispatcherDone chan struct{}
	drainOnce      sync.Once
	drained        chan struct{}
	forced         bool
}

// New starts a server: the dispatcher begins immediately; jobs flow once
// Submit is called.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:            cfg,
		start:          cfg.Now(),
		tenants:        map[string]*tenant{},
		jobs:           map[string]*job{},
		stages:         trace.StageTotals{},
		dispatcherDone: make(chan struct{}),
		drained:        make(chan struct{}),
	}
	for name, l := range cfg.Tenants {
		s.tenants[name] = newTenant(l)
	}
	s.cond = sync.NewCond(&s.mu)
	s.jobsCtx, s.cancelJobs = context.WithCancel(context.Background())
	go s.dispatch()
	return s
}

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
	// Jobs whose K exceeds PoolSlots are admitted anyway: such a job takes
	// every slot and runs its K ranks as goroutines, which is how K=64-128
	// jobs run on a machine-sized slot count.
	s.mu.Lock()
	defer s.mu.Unlock()
	// A tenant enters the books, and /metrics, with its first valid
	// submission, admitted or not.
	tn, ok := s.tenants[req.Tenant]
	if !ok {
		tn = newTenant(Limits{})
		s.tenants[req.Tenant] = tn
	}
	if s.draining {
		return JobStatus{}, ErrDraining
	}
	if len(s.queue) >= s.cfg.MaxQueue {
		return JobStatus{}, fmt.Errorf("%w (%d jobs queued)", ErrBacklogFull, len(s.queue))
	}
	now := s.cfg.Now()
	if err := s.admit(req.Tenant, tn, now); err != nil {
		return JobStatus{}, err
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.seq),
		tenant:    req.Tenant,
		priority:  tn.limits.Priority,
		seq:       s.seq,
		spec:      req.Spec,
		state:     StateQueued,
		submitted: now,
		done:      make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.queue = append(s.queue, j)
	s.cond.Signal()
	return j.status(), nil
}

// dispatch is the scheduler loop: highest-priority eligible job first,
// all-or-nothing slot reservation, strict head-of-line within the
// eligible set (a large job at the head waits for slots; smaller jobs
// behind it wait for their turn). The head of the line is re-chosen every
// time the dispatcher wakes, so a high-priority job arriving while a
// lower-priority one waits for slots still goes first.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.draining {
		j := s.queue.best(s.underRunningCap)
		if j == nil || s.slots(j) > s.freeSlots() {
			// Nothing to run, or the best job does not fit yet: wait for a
			// submission or a finishing job's broadcast rather than starting
			// smaller work ahead of it.
			s.cond.Wait()
			continue
		}
		s.queue.remove(j)
		s.running = append(s.running, j)
		s.startJob(j)
		s.jobWG.Add(1)
		go s.runJob(j)
	}
}

// slots is the rank slots j holds while it runs: one per rank, or every
// slot when K exceeds them.
func (s *Server) slots(j *job) int { return min(j.spec.K, s.cfg.PoolSlots) }

// freeSlots counts the rank slots no running job holds; s.mu is held.
func (s *Server) freeSlots() int {
	n := s.cfg.PoolSlots
	for _, j := range s.running {
		n -= s.slots(j)
	}
	return n
}

// underRunningCap reports whether j's tenant may start another job — the
// dispatcher's eligibility check; s.mu is held.
func (s *Server) underRunningCap(j *job) bool {
	limit := s.tenants[j.tenant].limits.MaxRunning
	return limit <= 0 || s.running.count(j.tenant) < limit
}

// startJob marks j running and assigns its spill namespace; s.mu is held.
func (s *Server) startJob(j *job) {
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
}

// runJob executes one dispatched job and retires it, returning its slots.
func (s *Server) runJob(j *job) {
	defer s.jobWG.Done()
	opts := cluster.Options{OnStage: func(rec trace.StageRecord) { s.observeStage(j, rec) }}
	s.mu.Lock()
	spec := j.spec
	s.mu.Unlock()
	rep, err := cluster.RunLocalOpts(s.jobsCtx, spec, opts)
	if j.spillDir != "" {
		os.RemoveAll(j.spillDir)
	}

	state := StateDone
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state = StateCanceled
	default:
		state = StateFailed
	}
	s.mu.Lock()
	s.running.remove(j)
	s.finish(j, state, rep, err)
	// A finished job frees its slots and may free a tenant's running cap:
	// wake the dispatcher.
	s.cond.Broadcast()
	s.mu.Unlock()
}

// finish retires j in a terminal state — the one place a job ends, run or
// not — and releases its waiters; s.mu is held.
func (s *Server) finish(j *job, state State, rep *cluster.JobReport, err error) {
	j.state = state
	j.finished = s.cfg.Now()
	j.report = rep
	if err != nil {
		j.errText = err.Error()
	}
	close(j.done)
}

// observeStage feeds the live per-stage rollup and the job's progress.
func (s *Server) observeStage(j *job, rec trace.StageRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stages.Add(rec)
	j.stagesDone++
	j.lastStage = rec.Stage.String()
	j.attempts = max(j.attempts, rec.Attempt)
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

// Drained is closed when a drain has fully completed (every job retired).
func (s *Server) Drained() <-chan struct{} { return s.drained }

// Drain gracefully stops the server: admission stops immediately, queued
// jobs are canceled, running jobs get DrainTimeout to finish, then are
// checkpoint-canceled through the supervisor (the attempt's mesh closes
// and every rank unwinds promptly). Drain blocks until every job has
// retired; it is idempotent and concurrent-safe, and reports whether any
// running job had to be force-canceled.
func (s *Server) Drain() (forced bool) {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		s.draining = true
		for _, j := range s.queue {
			s.finish(j, StateCanceled, nil, fmt.Errorf("canceled before start: %w", ErrDraining))
		}
		s.queue = nil
		s.cond.Broadcast()
		s.mu.Unlock()
		<-s.dispatcherDone

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

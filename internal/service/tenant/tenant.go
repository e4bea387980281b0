// Package tenant is the multi-tenant admission-control subsystem of the
// sort service: per-tenant token-bucket rate limits, queue and concurrency
// caps, scheduling priorities, and the counters behind the service's
// per-tenant metrics. It grew out of the -rate egress cap's token bucket:
// what that cap applies to a single worker's egress, this package
// applies to whole jobs competing for the shared worker pool
// — the compute-versus-communication budget the Fundamental Tradeoff line
// of work frames, arbitrated across tenants instead of within one job.
package tenant

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Admission errors, distinguished so the HTTP layer can map them to
// status codes (429 for the caller's own limits, 503 for shared pressure).
var (
	// ErrRateLimited reports an exhausted admission token bucket.
	ErrRateLimited = errors.New("tenant: admission rate limit exceeded")
	// ErrQueueFull reports a tenant at its queued-job cap.
	ErrQueueFull = errors.New("tenant: queue limit reached")
)

// Limits configures one tenant's admission control. The zero value is
// fully permissive: no rate limit, no caps, priority 0.
type Limits struct {
	// Priority orders queued jobs across tenants: higher runs first.
	Priority int `json:"priority,omitempty"`
	// RatePerSec refills the admission token bucket (jobs per second);
	// 0 disables rate limiting.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the bucket capacity (peak back-to-back admissions). 0 with
	// a positive rate defaults to 1.
	Burst int `json:"burst,omitempty"`
	// MaxQueued caps this tenant's jobs waiting in the queue; 0 = no cap.
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxRunning caps this tenant's concurrently running jobs; 0 = no cap.
	MaxRunning int `json:"max_running,omitempty"`
}

// Validate checks the limits' internal consistency.
func (l Limits) Validate() error {
	if l.RatePerSec < 0 {
		return fmt.Errorf("tenant: negative rate %g", l.RatePerSec)
	}
	if l.Burst < 0 || l.MaxQueued < 0 || l.MaxRunning < 0 {
		return fmt.Errorf("tenant: negative cap (burst %d, max queued %d, max running %d)",
			l.Burst, l.MaxQueued, l.MaxRunning)
	}
	return nil
}

// Bucket is a token bucket over injected timestamps, so admission
// decisions are deterministic under test clocks. A zero rate means the
// bucket never empties.
type Bucket struct {
	rate  float64 // tokens per second
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// NewBucket returns a bucket refilling at rate tokens/second with the
// given capacity, starting full. rate <= 0 disables limiting; burst < 1
// defaults to 1.
func NewBucket(rate float64, burst int) *Bucket {
	if burst < 1 {
		burst = 1
	}
	return &Bucket{rate: rate, burst: float64(burst), tokens: float64(burst)}
}

// Allow takes one token if available at time now and reports whether it
// did. Time moving backwards refills nothing (the bucket is monotone).
func (b *Bucket) Allow(now time.Time) bool {
	if b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens += dt * b.rate
			if b.tokens > b.burst {
				b.tokens = b.burst
			}
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Counters is a snapshot of one tenant's lifetime and live totals.
type Counters struct {
	// Submitted counts all submission attempts; Admitted the ones that
	// entered the queue.
	Submitted, Admitted int64
	// RejectedRate and RejectedQueue split the rejections by cause.
	RejectedRate, RejectedQueue int64
	// Completed, Failed and Canceled count finished jobs by outcome;
	// Recovered counts completed jobs that needed fault recovery.
	Completed, Failed, Canceled, Recovered int64
	// Queued and Running are live gauges.
	Queued, Running int64
}

// Tenant is one registered tenant: its limits, bucket and counters.
type Tenant struct {
	name   string
	limits Limits
	bucket *Bucket

	mu sync.Mutex
	c  Counters
}

// Name returns the tenant's identifier.
func (t *Tenant) Name() string { return t.name }

// Limits returns the tenant's configured limits.
func (t *Tenant) Limits() Limits { return t.limits }

// Counters returns a snapshot of the tenant's totals.
func (t *Tenant) Counters() Counters {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c
}

// Admit decides one submission at time now: the rate bucket must yield a
// token and the tenant must be under its queued cap. On success the job is
// accounted as queued; the caller must later move it with JobStarted and
// JobFinished (or JobDequeued if it never runs).
func (t *Tenant) Admit(now time.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.c.Submitted++
	// Queue pressure is checked before the bucket so a rejected
	// submission does not also burn a rate token.
	if t.limits.MaxQueued > 0 && t.c.Queued >= int64(t.limits.MaxQueued) {
		t.c.RejectedQueue++
		return fmt.Errorf("%w (tenant %q, %d queued)", ErrQueueFull, t.name, t.c.Queued)
	}
	if !t.bucket.Allow(now) {
		t.c.RejectedRate++
		return fmt.Errorf("%w (tenant %q)", ErrRateLimited, t.name)
	}
	t.c.Admitted++
	t.c.Queued++
	return nil
}

// CanRun reports whether the tenant is below its running-jobs cap — the
// dispatcher's eligibility check.
func (t *Tenant) CanRun() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.limits.MaxRunning <= 0 || t.c.Running < int64(t.limits.MaxRunning)
}

// JobStarted moves one job from queued to running.
func (t *Tenant) JobStarted() {
	t.mu.Lock()
	t.c.Queued--
	t.c.Running++
	t.mu.Unlock()
}

// JobDequeued removes a queued job that will never run (drain cancel).
func (t *Tenant) JobDequeued() {
	t.mu.Lock()
	t.c.Queued--
	t.mu.Unlock()
}

// Outcome classifies a finished job for the tenant's counters.
type Outcome int

const (
	// Completed is a successful job.
	Completed Outcome = iota
	// CompletedRecovered is a successful job that needed fault recovery.
	CompletedRecovered
	// Failed is a job that returned an error.
	Failed
	// Canceled is a job stopped by drain or shutdown.
	Canceled
)

// JobFinished retires one running job with its outcome.
func (t *Tenant) JobFinished(o Outcome) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.c.Running--
	switch o {
	case Completed:
		t.c.Completed++
	case CompletedRecovered:
		t.c.Completed++
		t.c.Recovered++
	case Failed:
		t.c.Failed++
	case Canceled:
		t.c.Canceled++
	}
}

// Registry holds the tenant set. Unknown tenants are materialized on first
// use with the default limits, so a fresh service works without
// pre-registration while configured tenants keep their own budgets.
type Registry struct {
	mu       sync.Mutex
	defaults Limits
	tenants  map[string]*Tenant
}

// NewRegistry returns a registry applying defaults to tenants that were
// never explicitly defined.
func NewRegistry(defaults Limits) *Registry {
	return &Registry{defaults: defaults, tenants: map[string]*Tenant{}}
}

// Define registers (or reconfigures) a tenant with its own limits.
// Reconfiguring resets the tenant's bucket but keeps its counters.
func (r *Registry) Define(name string, l Limits) error {
	if name == "" {
		return errors.New("tenant: empty tenant name")
	}
	if err := l.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[name]; ok {
		t.mu.Lock()
		t.limits = l
		t.bucket = NewBucket(l.RatePerSec, l.Burst)
		t.mu.Unlock()
		return nil
	}
	r.tenants[name] = &Tenant{name: name, limits: l, bucket: NewBucket(l.RatePerSec, l.Burst)}
	return nil
}

// Get returns the named tenant, materializing it with the default limits
// if it was never defined.
func (r *Registry) Get(name string) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.tenants[name]; ok {
		return t
	}
	t := &Tenant{name: name, limits: r.defaults, bucket: NewBucket(r.defaults.RatePerSec, r.defaults.Burst)}
	r.tenants[name] = t
	return t
}

// All returns the registered tenants sorted by name — the stable order
// the metrics exposition renders them in.
func (r *Registry) All() []*Tenant {
	r.mu.Lock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

package service

import (
	"errors"
	"fmt"
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
	Priority int
	// RatePerSec refills the admission token bucket (jobs per second);
	// 0 disables rate limiting.
	RatePerSec float64
	// Burst is the bucket capacity (peak back-to-back admissions). 0 with
	// a positive rate defaults to 1.
	Burst int
	// MaxQueued caps this tenant's jobs waiting in the queue; 0 = no cap.
	MaxQueued int
	// MaxRunning caps this tenant's concurrently running jobs; 0 = no cap.
	MaxRunning int
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
// bucket never empties. It is not safe for concurrent use: the server
// calls it under its lock.
type Bucket struct {
	rate   float64 // tokens per second
	burst  float64
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
	if !b.last.IsZero() {
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens = min(b.tokens+dt*b.rate, b.burst)
		}
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// tenant is what the server keeps per tenant beside its jobs: the limits,
// the rate bucket, and the submissions refused before they became jobs.
// Every other per-tenant count is read off the job table.
type tenant struct {
	limits                      Limits
	bucket                      *Bucket
	rejectedRate, rejectedQueue int64
}

func newTenant(l Limits) *tenant {
	return &tenant{limits: l, bucket: NewBucket(l.RatePerSec, l.Burst)}
}

// admit decides one submission from the named tenant at time now: it must
// be under its queued cap, with queued jobs counted in s.queue, and its
// bucket must yield a token. The queue is checked first so a refused
// submission does not also burn a token. s.mu is held.
func (s *Server) admit(name string, tn *tenant, now time.Time) error {
	if limit := tn.limits.MaxQueued; limit > 0 {
		if n := s.queue.count(name); n >= limit {
			tn.rejectedQueue++
			return fmt.Errorf("%w (tenant %q, %d queued)", ErrQueueFull, name, n)
		}
	}
	if !tn.bucket.Allow(now) {
		tn.rejectedRate++
		return fmt.Errorf("%w (tenant %q)", ErrRateLimited, name)
	}
	return nil
}

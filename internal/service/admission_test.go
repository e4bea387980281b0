package service

import (
	"errors"
	"testing"
	"time"
)

// epoch gives the deterministic clock tests advance manually.
var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func TestBucketRefill(t *testing.T) {
	b := NewBucket(2, 2) // 2 tokens/s, capacity 2, starts full
	now := epoch
	if !b.Allow(now) || !b.Allow(now) {
		t.Fatal("full bucket denied its burst")
	}
	if b.Allow(now) {
		t.Fatal("empty bucket allowed a third admission")
	}
	if b.Allow(now.Add(100 * time.Millisecond)) {
		t.Fatal("bucket refilled a whole token in 100ms at 2/s")
	}
	// The 100ms above deposited 0.2 tokens; 400ms more completes one.
	if !b.Allow(now.Add(500 * time.Millisecond)) {
		t.Fatal("bucket did not refill after 500ms at 2/s")
	}
	// Time going backwards must not mint tokens.
	if b.Allow(now.Add(-time.Hour)) {
		t.Fatal("bucket refilled from a clock running backwards")
	}
}

func TestBucketUnlimited(t *testing.T) {
	b := NewBucket(0, 0)
	for i := 0; i < 1000; i++ {
		if !b.Allow(epoch) {
			t.Fatal("unlimited bucket denied an admission")
		}
	}
}

// TestLimitsValidate: negative rates and caps are refused (sortd checks
// each -tenant definition with it).
func TestLimitsValidate(t *testing.T) {
	if err := (Limits{Priority: -1, RatePerSec: 2, Burst: 3, MaxQueued: 4, MaxRunning: 5}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, l := range []Limits{{RatePerSec: -1}, {Burst: -1}, {MaxQueued: -1}, {MaxRunning: -1}} {
		if err := l.Validate(); err == nil {
			t.Fatalf("%+v accepted", l)
		}
	}
}

// TestAdmitRateAndQueueCaps: the queued cap, counted over the server's
// queue, is checked before the bucket, so a submission refused for a full
// queue burns no token; each refusal is counted by its cause.
func TestAdmitRateAndQueueCaps(t *testing.T) {
	s := New(Config{Tenants: map[string]Limits{"acme": {RatePerSec: 1, Burst: 2, MaxQueued: 1}}})
	defer s.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	acme := s.tenants["acme"]
	if err := s.admit("acme", acme, epoch); err != nil {
		t.Fatal(err)
	}
	s.queue = jobQueue{{tenant: "other"}, {tenant: "acme"}}
	if err := s.admit("acme", acme, epoch); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("got %v, want ErrQueueFull", err)
	}
	s.queue = jobQueue{{tenant: "other"}}
	// The queue refusal left the bucket's second token.
	if err := s.admit("acme", acme, epoch); err != nil {
		t.Fatal(err)
	}
	if err := s.admit("acme", acme, epoch); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("got %v, want ErrRateLimited", err)
	}
	s.queue = nil
	if acme.rejectedQueue != 1 || acme.rejectedRate != 1 {
		t.Fatalf("rejected: queue %d rate %d, want 1 each", acme.rejectedQueue, acme.rejectedRate)
	}
}

// TestRunningCap: a tenant at its running cap, counted over the server's
// running set, is not eligible to start another job; other tenants are.
func TestRunningCap(t *testing.T) {
	s := New(Config{Tenants: map[string]Limits{"acme": {MaxRunning: 1}, "other": {}}})
	defer s.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	next := &job{tenant: "acme"}
	if !s.underRunningCap(next) {
		t.Fatal("idle tenant cannot run")
	}
	s.running = jobQueue{{tenant: "acme"}}
	if s.underRunningCap(next) {
		t.Fatal("tenant at MaxRunning=1 still eligible")
	}
	if !s.underRunningCap(&job{tenant: "other"}) {
		t.Fatal("uncapped tenant held back by another's cap")
	}
	s.running = nil
}

package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"codedterasort/internal/trace"
)

// TestPoolExecutorReuse: sequential jobs share the same executor
// goroutines, so completed rank lifecycles accumulate well past the slot
// count.
func TestPoolExecutorReuse(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	for i := 0; i < 3; i++ {
		if _, err := p.Run(context.Background(), Spec{Algorithm: AlgTeraSort, K: 3, Rows: 600, Seed: uint64(i + 1)}, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if st.Slots != 3 || st.Free != 3 {
		t.Fatalf("stats %+v: want 3 slots, all free", st)
	}
	if st.Jobs != 3 || st.Ranks != 9 {
		t.Fatalf("stats %+v: want 3 jobs over 9 reused rank lifecycles", st)
	}
}

// TestPoolConcurrentJobs: jobs from several goroutines share one pool,
// each validated independently.
func TestPoolConcurrentJobs(t *testing.T) {
	p := NewPool(6)
	defer p.Close()
	specs := []Spec{
		{Algorithm: AlgTeraSort, K: 3, Rows: 1500, Seed: 1},
		{Algorithm: AlgCoded, K: 3, R: 2, Rows: 1500, Seed: 2},
		{Algorithm: AlgTeraSort, K: 3, Rows: 1500, Seed: 3},
		{Algorithm: AlgCoded, K: 3, R: 2, Rows: 1500, Seed: 4},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec Spec) {
			defer wg.Done()
			job, err := p.Run(context.Background(), spec, Options{})
			if err == nil && !job.Validated {
				err = errors.New("not validated")
			}
			errs[i] = err
		}(i, spec)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}

// TestPoolReserveTooLarge: a reservation bigger than the pool is rejected,
// not deadlocked (Pool.Run multiplexes such a job instead, as FuzzJob's
// pool draws do).
func TestPoolReserveTooLarge(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	if _, err := p.Reserve(context.Background(), 3); err == nil {
		t.Fatal("reserving 3 of 2 slots succeeded")
	}
}

// TestPoolReserveCancel: a blocked reservation honors context
// cancellation.
func TestPoolReserveCancel(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	lease, err := p.Reserve(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Reserve(ctx, 1)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked reserve returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked reserve did not observe cancellation")
	}
	lease.Release()
	lease.Release() // idempotent
	if st := p.Stats(); st.Free != 2 {
		t.Fatalf("free=%d after release, want 2", st.Free)
	}
}

// TestPoolClosedReserve: Reserve after Close fails with ErrPoolClosed,
// both immediately and for waiters.
func TestPoolClosedReserve(t *testing.T) {
	p := NewPool(1)
	p.Close()
	p.Close() // idempotent
	if _, err := p.Reserve(context.Background(), 1); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("reserve on closed pool: %v, want ErrPoolClosed", err)
	}
	if st := p.Stats(); st.Free != 0 {
		t.Fatalf("closed pool reports %d free slots", st.Free)
	}
}

// TestRunLocalOptsCancel: canceling the context checkpoint-cancels a
// running job — it returns promptly with the context error instead of
// recovering, even with a generous attempt budget.
func TestRunLocalOptsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	opts := Options{OnStage: func(trace.StageRecord) {
		once.Do(func() { close(started) })
	}}
	done := make(chan error, 1)
	go func() {
		_, err := RunLocalOpts(ctx, Spec{
			Algorithm: AlgTeraSort, K: 4, Rows: 400_000, Seed: 5, MaxAttempts: 5,
		}, opts)
		done <- err
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled job returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled job did not return")
	}
}

// TestRunLocalOptsPreCanceled: an already-canceled context never starts an
// attempt.
func TestRunLocalOptsPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunLocalOpts(ctx, Spec{Algorithm: AlgTeraSort, K: 2, Rows: 200, Seed: 1}, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled run returned %v, want context.Canceled", err)
	}
}

// TestRunLocalOptsOnStage: the live stage feed sees every stage of every
// rank, attempt-tagged across recovery.
func TestRunLocalOptsOnStage(t *testing.T) {
	var mu sync.Mutex
	var recs []trace.StageRecord
	opts := Options{OnStage: func(rec trace.StageRecord) {
		mu.Lock()
		recs = append(recs, rec)
		mu.Unlock()
	}}
	spec := Spec{
		Algorithm: AlgTeraSort, K: 3, Rows: 1200, Seed: 6,
		Faults:      []FaultSpec{{Rank: 1, Stage: "Map", Kind: "kill"}},
		MaxAttempts: 2,
	}
	job, err := RunLocalOpts(context.Background(), spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if job.Attempts != 2 {
		t.Fatalf("attempts=%d, want 2", job.Attempts)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(recs) != len(job.Stages) {
		t.Fatalf("observer saw %d records, log holds %d", len(recs), len(job.Stages))
	}
	totals := trace.StageTotals{}
	var attempts1, attempts2 int
	for _, rec := range recs {
		totals.Add(rec)
		switch rec.Attempt {
		case 1:
			attempts1++
		case 2:
			attempts2++
		}
	}
	if attempts1 == 0 {
		t.Fatal("the failed attempt left no records in the live feed")
	}
	// The clean re-execution records every stage of every rank:
	// 3 ranks x 4 TeraSort stages (Map, Pack, Shuffle, Reduce).
	if attempts2 != spec.K*4 {
		t.Fatalf("attempt-2 records = %d, want %d", attempts2, spec.K*5)
	}
	var runs int64
	for _, tot := range totals {
		runs += tot.Runs
	}
	if runs != int64(len(recs)) {
		t.Fatalf("totals cover %d runs of %d records", runs, len(recs))
	}
}

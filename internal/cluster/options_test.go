package cluster

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"codedterasort/internal/trace"
)

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
	// The clean re-execution records every stage of every rank: K ranks
	// times the timed stages of the job's schedule.
	if want := spec.K * len(jobColumns(spec)); attempts2 != want {
		t.Fatalf("attempt-2 records = %d, want %d", attempts2, want)
	}
	var runs int64
	for _, tot := range totals {
		runs += tot.Runs
	}
	if runs != int64(len(recs)) {
		t.Fatalf("totals cover %d runs of %d records", runs, len(recs))
	}
}

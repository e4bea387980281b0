package trace

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"codedterasort/internal/stats"
)

// stepClock is a clock the test sets by hand.
type stepClock struct{ now time.Duration }

func (c *stepClock) Now() time.Duration { return c.now }

// TestStageLog: records from several nodes merge into completion order,
// errors are captured as text, and String renders one line per record.
func TestStageLog(t *testing.T) {
	clock := &stepClock{}
	log := NewStageLog(clock)
	clock.now = 10 * time.Millisecond
	log.Record(1, stats.StageMap, 3*time.Millisecond, nil)
	clock.now = 20 * time.Millisecond
	log.Record(0, stats.StageMap, 5*time.Millisecond, errors.New("boom"))

	recs := log.Records()
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if recs[0].Node != 1 || recs[0].At != 10*time.Millisecond || recs[0].Err != "" {
		t.Fatalf("first record: %+v", recs[0])
	}
	if recs[1].Node != 0 || recs[1].Err != "boom" {
		t.Fatalf("second record: %+v", recs[1])
	}
	if s := recs[1].String(); !strings.Contains(s, "Map") || !strings.Contains(s, "ERR boom") {
		t.Fatalf("render: %q", s)
	}
}

// TestStageLogConcurrent: concurrent per-worker hook calls are safe and
// all land.
func TestStageLogConcurrent(t *testing.T) {
	log := NewStageLog(stats.NewWallClock())
	var wg sync.WaitGroup
	for n := 0; n < 8; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for s := stats.StageCodeGen; s < stats.NumStages; s++ {
				log.Record(n, s, time.Microsecond, nil)
			}
		}(n)
	}
	wg.Wait()
	if got := len(log.Records()); got != 8*int(stats.NumStages) {
		t.Fatalf("%d records, want %d", got, 8*int(stats.NumStages))
	}
}

// TestStageLogAttempts: records carry attempt 1 until NewAttempt advances
// the number, and String tags only re-executed records with it.
func TestStageLogAttempts(t *testing.T) {
	log := NewStageLog(&stepClock{})
	log.Record(0, stats.StageMap, time.Millisecond, nil)
	if got := log.NewAttempt(); got != 2 {
		t.Fatalf("NewAttempt = %d, want 2", got)
	}
	log.Record(0, stats.StageMap, time.Millisecond, nil)
	recs := log.Records()
	if recs[0].Attempt != 1 || recs[1].Attempt != 2 {
		t.Fatalf("attempts %d, %d; want 1, 2", recs[0].Attempt, recs[1].Attempt)
	}
	if s := recs[0].String(); strings.Contains(s, "attempt") {
		t.Fatalf("first attempt tagged: %q", s)
	}
	if s := recs[1].String(); !strings.Contains(s, "attempt 2") {
		t.Fatalf("re-execution untagged: %q", s)
	}
}

// TestStageLogObserve: the observer sees every record, stamped exactly as
// the log stores it, and may read the log without deadlocking.
func TestStageLogObserve(t *testing.T) {
	clock := &stepClock{now: 7 * time.Millisecond}
	log := NewStageLog(clock)
	var seen []StageRecord
	log.Observe(func(rec StageRecord) {
		seen = append(seen, rec)
		if n := len(log.Records()); n != len(seen) {
			t.Errorf("observer ran before the append: log holds %d, seen %d", n, len(seen))
		}
	})
	log.Record(2, stats.StageShuffle, 4*time.Millisecond, nil)
	log.Record(3, stats.StageReduce, time.Millisecond, errors.New("disk"))
	recs := log.Records()
	if len(seen) != 2 || seen[0] != recs[0] || seen[1] != recs[1] {
		t.Fatalf("observer saw %+v, log holds %+v", seen, recs)
	}
}

// TestStageTotalsAdd: totals count runs and errored runs per stage and sum
// their seconds.
func TestStageTotalsAdd(t *testing.T) {
	totals := StageTotals{}
	totals.Add(StageRecord{Stage: stats.StageMap, Elapsed: 1500 * time.Millisecond})
	totals.Add(StageRecord{Stage: stats.StageMap, Elapsed: 500 * time.Millisecond, Err: "boom"})
	totals.Add(StageRecord{Stage: stats.StageShuffle, Elapsed: 3 * time.Second})
	if got, want := totals[stats.StageMap], (StageTotal{Runs: 2, Errors: 1, Seconds: 2}); got != want {
		t.Fatalf("Map totals %+v, want %+v", got, want)
	}
	if got, want := totals[stats.StageShuffle], (StageTotal{Runs: 1, Seconds: 3}); got != want {
		t.Fatalf("Shuffle totals %+v, want %+v", got, want)
	}
	if _, ok := totals[stats.StageReduce]; ok {
		t.Fatal("Reduce has totals without a record")
	}
}

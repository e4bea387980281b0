package mapreduce_test

import (
	"testing"
	"time"

	jobspec "codedterasort/internal/job"
	"codedterasort/internal/mapreduce"
	"codedterasort/internal/mapreduce/mrtest"
)

// TestRunLocalHonoursStageDeadline: a MapReduce job runs on the sorters'
// supervisor, so an armed stage deadline catches a compute straggler and
// recovery re-executes the job without it — where a private runtime used
// to accept the deadline and then ignore it.
func TestRunLocalHonoursStageDeadline(t *testing.T) {
	kern, ok := mapreduce.Lookup("wordcount")
	if !ok {
		t.Fatal("wordcount kernel not registered")
	}
	job := kern.Job(4, 2, 2000, 7)
	job.StageDeadline = 300 * time.Millisecond
	job.MaxAttempts = 2
	job.Faults = []jobspec.FaultSpec{{Rank: 2, Stage: "Shuffle", Kind: jobspec.FaultSlow, Factor: 1, Delay: 2 * time.Second}}
	want, err := mapreduce.Sequential(job)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mapreduce.RunLocal(job)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", rep.Attempts)
	}
	if len(rep.Recovered) == 0 || rep.Recovered[0].Rank != 2 || rep.Recovered[0].Reason != "missed deadline" {
		t.Fatalf("Recovered = %v, want rank 2 missed deadline first", rep.Recovered)
	}
	mrtest.Equal(t, want, rep)
}

// TestRunLocalReportsLikeSort: a clean MapReduce report carries what a
// sort report carries — the stage log, transport and payload byte counts —
// and does not claim a self-verification it never ran.
func TestRunLocalReportsLikeSort(t *testing.T) {
	kern, ok := mapreduce.Lookup("invertedindex")
	if !ok {
		t.Fatal("invertedindex kernel not registered")
	}
	rep, err := mapreduce.RunLocal(kern.Job(4, 2, 1500, 3))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 1 || len(rep.Stages) == 0 {
		t.Fatalf("attempts %d, %d stage records", rep.Attempts, len(rep.Stages))
	}
	for i, rec := range rep.Stages {
		if rec.Attempt != 1 {
			t.Fatalf("stage record %d tagged attempt %d in a clean run", i, rec.Attempt)
		}
	}
	var sent int64
	for _, w := range rep.Workers {
		sent += w.SentBytes
	}
	if rep.ShuffleLoadBytes <= 0 || rep.ShuffleLoadBytes != sent {
		t.Fatalf("shuffle load %d, workers sent %d", rep.ShuffleLoadBytes, sent)
	}
	if rep.WireBytes < rep.ShuffleLoadBytes {
		t.Fatalf("wire bytes %d below the shuffle load %d", rep.WireBytes, rep.ShuffleLoadBytes)
	}
	if rep.Validated {
		t.Fatal("MapReduce report claims validation; Sequential is its oracle")
	}
	if mapreduce.ReducedRows(rep) == 0 {
		t.Fatal("no reduced output")
	}
}

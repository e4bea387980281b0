package main

import (
	"bytes"
	"flag"
	"testing"
	"time"

	"codedterasort/internal/cluster"
	"codedterasort/internal/job"
	"codedterasort/internal/mapreduce"
)

// parse runs codedmr's flag-to-job path on args.
func parse(t *testing.T, alg job.Algorithm, args ...string) mapreduce.Job {
	t.Helper()
	fs := flag.NewFlagSet("codedmr", flag.ContinueOnError)
	o := register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	_, mr, err := o.job(alg)
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// rangeOrdered reports whether every key of rank i sorts at or below every
// key of rank i+1 — what splitter partitioning promises and hash
// partitioning does not.
func rangeOrdered(rep *cluster.JobReport) bool {
	var prev []byte
	for _, w := range rep.Workers {
		out := w.Output
		for i := 0; i < out.Len(); i++ {
			if prev != nil && bytes.Compare(out.Key(i), prev) < 0 {
				return false
			}
		}
		if out.Len() > 0 {
			prev = append(prev[:0], out.Key(out.Len()-1)...)
		}
	}
	return true
}

// TestPartitionFlagsReachTheEngine: -partition and -samples were registered
// and then dropped on the way to the job; now the job is the flags' spec, so
// the engine runs the sampling round and the reducers come out
// range-ordered by the agreed splitters.
func TestPartitionFlagsReachTheEngine(t *testing.T) {
	args := []string{"-kernel", "wordcount", "-k", "4", "-r", "2", "-rows", "3000", "-procs", "1"}
	hashed, err := mapreduce.RunLocal(parse(t, "", args...))
	if err != nil {
		t.Fatal(err)
	}
	if rangeOrdered(hashed) {
		t.Fatal("degenerate test: the hash-partitioned run is already range-ordered")
	}
	mr := parse(t, "", append(args, "-partition", "sample", "-samples", "400")...)
	if mr.Partitioning != "sample" || mr.SampleSize != 400 {
		t.Fatalf("job lost the partitioning flags: %+v", mr.Spec)
	}
	sampled, err := mapreduce.RunLocal(mr)
	if err != nil {
		t.Fatal(err)
	}
	if !rangeOrdered(sampled) {
		t.Fatal("-partition sample did not range-order the reducers")
	}
	if mapreduce.ReducedRows(sampled) != mapreduce.ReducedRows(hashed) {
		t.Fatalf("%d reduced rows sampled, %d hashed", mapreduce.ReducedRows(sampled), mapreduce.ReducedRows(hashed))
	}
}

// TestEveryJobFlagReachesTheJob: the rest of the shared surface, at its
// spec field; -strategy is honoured or refused, never dropped.
func TestEveryJobFlagReachesTheJob(t *testing.T) {
	mr := parse(t, "", "-k", "6", "-r", "3", "-strategy", "resolvable", "-dist", "zipf", "-tree",
		"-rate", "50", "-permsg", "1ms", "-chunk", "64", "-window", "2", "-membudget", "65536",
		"-spilldir", "/tmp/x", "-procs", "2", "-stragglers", "4", "-straggler-rank", "1", "-max-attempts", "2",
		"-deadline", "3s")
	s := mr.Spec
	if s.K != 6 || s.R != 3 || s.Placement != "resolvable" || s.DistName != "zipf" || !s.TreeMulticast ||
		s.RateMbps != 50 || s.PerMessage.Milliseconds() != 1 || s.ChunkRows != 64 || s.Window != 2 ||
		s.MemBudget != 65536 || s.SpillDir != "/tmp/x" || s.Parallelism != 2 ||
		s.StragglerFactor != 4 || s.StragglerRank != 1 || s.MaxAttempts != 2 || s.StageDeadline != 3*time.Second {
		t.Fatalf("job spec: %+v", s)
	}
	if mr.Mapper == nil || mr.Input.Len() != int(s.Rows) {
		t.Fatalf("kernel not attached: %d input rows for -rows %d", mr.Input.Len(), s.Rows)
	}
	// The -compare baseline is the same job as TeraSort: coded-only knobs
	// dropped, everything else held.
	base := parse(t, job.AlgTeraSort, "-k", "6", "-r", "3", "-strategy", "resolvable", "-chunk", "64").Spec
	if base.Algorithm != job.AlgTeraSort || base.R != 0 || base.Placement != "" || base.ChunkRows != 64 {
		t.Fatalf("baseline spec: %+v", base)
	}
	if _, err := mapreduce.RunLocal(parse(t, "", "-strategy", "nosuch", "-rows", "100")); err == nil {
		t.Fatal("-strategy nosuch accepted")
	}
	if _, err := mapreduce.RunLocal(parse(t, "", "-k", "5", "-r", "2", "-strategy", "resolvable", "-rows", "100")); err == nil {
		t.Fatal("infeasible -strategy resolvable accepted")
	}
}

package mapreduce_test

import (
	"strings"
	"testing"

	jobspec "codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/mapreduce"
	"codedterasort/internal/partition"
)

// TestSampledJobMatchesSequential: a kernel job under Partitioning
// "sample" — splitters agreed over the mapped intermediate keys, not the
// raw input — reduces to output byte-identical to the sequential oracle
// on both engines.
func TestSampledJobMatchesSequential(t *testing.T) {
	kern, ok := mapreduce.Lookup("wordcount")
	if !ok {
		t.Fatal("wordcount kernel not registered")
	}
	for _, r := range []int{1, 2} {
		job := kern.Job(3, r, 2000, 21)
		job.Partitioning = "sample"
		want, err := mapreduce.Sequential(job)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := mapreduce.RunLocal(job)
		if err != nil {
			t.Fatalf("R=%d: %v", r, err)
		}
		for rank := 0; rank < job.K; rank++ {
			if !rep.Workers[rank].Output.Equal(want[rank]) {
				t.Fatalf("R=%d rank %d output differs from sequential oracle (%d rows vs %d)",
					r, rank, rep.Workers[rank].Output.Len(), want[rank].Len())
			}
		}
	}
}

func TestSampledJobRejectsExplicitPart(t *testing.T) {
	kern, ok := mapreduce.Lookup("wordcount")
	if !ok {
		t.Fatal("wordcount kernel not registered")
	}
	job := kern.Job(3, 1, 500, 5)
	job.Partitioning = "sample"
	job.Part = partition.NewUniform(3)
	if _, err := mapreduce.RunLocal(job); err == nil ||
		!strings.Contains(err.Error(), "explicit partitioner") {
		t.Fatalf("explicit Part with sampling accepted: %v", err)
	}
	if _, err := mapreduce.Sequential(job); err == nil {
		t.Fatal("Sequential accepted explicit Part with sampling")
	}
}

// TestSampledSortRangeOrders: under sampled partitioning the identity
// sort job range-orders the reducers — every record of rank i sorts below
// every record of rank i+1 — which hash partitioning cannot promise.
func TestSampledSortRangeOrders(t *testing.T) {
	job := mapreduce.Job{
		Mapper: mapreduce.MapperFunc(func(rec []byte, emit mapreduce.Emit) {
			emit(rec[:kv.KeySize], rec[kv.KeySize:])
		}),
		Spec: jobspec.Spec{K: 4, Rows: 3000, Seed: 33, DistName: "zipf", Partitioning: "sample"},
	}
	rep, err := mapreduce.RunLocal(job)
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	total := int64(0)
	for rank := 0; rank < job.K; rank++ {
		out := rep.Workers[rank].Output
		total += int64(out.Len())
		if !out.IsSorted() {
			t.Fatalf("rank %d output not sorted", rank)
		}
		for i := 0; i < out.Len(); i++ {
			if prev != nil && string(out.Key(i)) < string(prev) {
				t.Fatalf("rank %d key below the previous rank's keys", rank)
			}
		}
		if out.Len() > 0 {
			prev = append(prev[:0], out.Key(out.Len()-1)...)
		}
	}
	if total != job.Rows {
		t.Fatalf("%d output rows, want %d", total, job.Rows)
	}
}

// TestResolvablePlacementMatchesSequential: the job's Placement reaches the
// engine — the input dataset is split along the resolvable design's
// subfiles, not the clique scheme's — and the reduced output is still the
// oracle's, at a fraction of the clique scheme's group count.
func TestResolvablePlacementMatchesSequential(t *testing.T) {
	kern, ok := mapreduce.Lookup("wordcount")
	if !ok {
		t.Fatal("wordcount kernel not registered")
	}
	want, err := mapreduce.Sequential(kern.Job(6, 1, 1500, 9))
	if err != nil {
		t.Fatal(err)
	}
	loads := map[string]int64{}
	for _, placement := range []string{"clique", "resolvable"} {
		job := kern.Job(6, 3, 1500, 9)
		job.Placement = placement
		rep, err := mapreduce.RunLocal(job)
		if err != nil {
			t.Fatalf("%s: %v", placement, err)
		}
		for rank := range want {
			if !rep.Workers[rank].Output.Equal(want[rank]) {
				t.Fatalf("%s rank %d output differs from sequential oracle", placement, rank)
			}
		}
		loads[placement] = rep.ShuffleLoadBytes
	}
	// Same replication, different group structure: 20 clique groups of four
	// against 6 resolvable groups of three frame the payload differently.
	if loads["clique"] == loads["resolvable"] {
		t.Fatalf("resolvable ran the clique scheme: both moved %d bytes", loads["clique"])
	}
	bad := kern.Job(5, 2, 100, 1)
	bad.Placement = "resolvable" // 5 is not a multiple of 2
	if _, err := mapreduce.RunLocal(bad); err == nil {
		t.Fatal("infeasible resolvable job accepted")
	}
}

// TestJobNeedsMapper: the one check that is mapreduce's own.
func TestJobNeedsMapper(t *testing.T) {
	j := mapreduce.Job{Spec: jobspec.Spec{K: 2, Rows: 10}}
	if _, err := mapreduce.RunLocal(j); err == nil || !strings.Contains(err.Error(), "no Mapper") {
		t.Fatalf("RunLocal without a Mapper: %v", err)
	}
	if _, err := mapreduce.Sequential(j); err == nil {
		t.Fatal("Sequential without a Mapper accepted")
	}
}

package engine

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

// TestSampleSplitters: over a 3-rank memnet mesh, each rank contributes
// its own sample keys, and every rank returns boundaries identical to
// selecting directly over the pooled sample — the agreement property the
// engines build on. The round's payload is charged to SampleBytes on
// every rank.
func TestSampleSplitters(t *testing.T) {
	const k = 3
	mesh := memnet.NewMesh(k)
	defer mesh.Close()
	gatherTag := transport.MakeTag(0x7E, 1, 0xFFFF)
	bcastTag := transport.MakeTag(0x7E, 2, 0xFFFF)

	samples := make([][]byte, k)
	var pooled []byte
	for r := 0; r < k; r++ {
		samples[r] = kv.NewGenerator(uint64(r+1), kv.DistZipf).Generate(0, 50).Keys()
		pooled = append(pooled, samples[r]...)
	}
	want, err := partition.SelectSplitters(pooled, k)
	if err != nil {
		t.Fatal(err)
	}

	got := make([][][]byte, k)
	counted := make([]int64, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	spec := resolved(t, job.Spec{K: k, Partitioning: "sample"})
	for r := 0; r < k; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ep := transport.WithCollectives(mesh.Endpoint(r))
			ctx := newContext(ep, spec, ModeMono)
			got[r], errs[r] = ctx.SampleSplitters(gatherTag, bcastTag, samples[r])
			counted[r] = ctx.Counters.SampleBytes
		}(r)
	}
	wg.Wait()
	for r := 0; r < k; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if len(got[r]) != len(want) {
			t.Fatalf("rank %d: %d bounds, want %d", r, len(got[r]), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[r][i], want[i]) {
				t.Fatalf("rank %d bound %d = % x, want % x", r, i, got[r][i], want[i])
			}
		}
		if counted[r] <= 0 {
			t.Fatalf("rank %d charged no sample bytes", r)
		}
	}
}

// TestSampleSplittersCorruptSample: a contributed buffer that is not a
// whole number of keys fails selection at rank 0 with the partition
// package's diagnosis.
func TestSampleSplittersCorruptSample(t *testing.T) {
	mesh := memnet.NewMesh(1)
	defer mesh.Close()
	ep := transport.WithCollectives(mesh.Endpoint(0))
	ctx := newContext(ep, resolved(t, job.Spec{K: 1, Partitioning: "sample"}), ModeMono)
	_, err := ctx.SampleSplitters(transport.MakeTag(0x7E, 1, 0xFFFF),
		transport.MakeTag(0x7E, 2, 0xFFFF), []byte{1, 2, 3})
	if err == nil || !strings.Contains(err.Error(), "splitter selection") {
		t.Fatalf("corrupt sample error = %v", err)
	}
}

func TestContextSorterAndSpillAppend(t *testing.T) {
	mesh := memnet.NewMesh(1)
	defer mesh.Close()
	ep := transport.WithCollectives(mesh.Endpoint(0))
	ctx := newContext(ep, resolved(t, job.Spec{K: 1, MemBudget: 1 << 20, SpillDir: t.TempDir()}), ModeSpill)
	if err := ctx.SpillAppend(kv.MakeRecords(0)); err == nil {
		t.Fatal("SpillAppend before the sorter exists must error")
	}
	s, err := ctx.Sorter()
	if err != nil {
		t.Fatal(err)
	}
	if s2, err := ctx.Sorter(); err != nil || s2 != s {
		t.Fatalf("second Sorter call must return the same sorter (%v)", err)
	}
	if err := ctx.SpillAppend(kv.NewGenerator(1, kv.DistUniform).Generate(0, 10)); err != nil {
		t.Fatal(err)
	}
	ctx.cleanup()
}

func TestContextScheduleParallel(t *testing.T) {
	mesh := memnet.NewMesh(1)
	defer mesh.Close()
	ep := transport.WithCollectives(mesh.Endpoint(0))
	ctx := newContext(ep, resolved(t, job.Spec{K: 1, ParallelShuffle: true}), ModeMono)
	ran := false
	if err := ctx.Schedule(transport.MakeTag(0x7E, 3, 0xFFFF), func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Parallel schedule did not run the sender")
	}
}

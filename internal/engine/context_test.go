package engine

import (
	"testing"

	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

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

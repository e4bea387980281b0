package cluster

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"codedterasort/internal/engine"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/placement"
	"codedterasort/internal/trace"
	"codedterasort/internal/transport"
)

// tamperOutput wraps runWorker so that rank's reported output is replaced
// by tamper's rewrite of it — a faulty rank the verifier must catch.
func tamperOutput(rank int, tamper func(kv.Records) kv.Records) workerFunc {
	return func(ep transport.Endpoint, spec Spec, local job.Local, sink func(kv.Records) error, hooks engine.Hooks) (WorkerReport, error) {
		w, err := runWorker(ep, spec, local, sink, hooks)
		if err == nil && ep.Rank() == rank {
			w.Output = tamper(w.Output.Clone())
		}
		return w, err
	}
}

// TestVerifyCatchesFaultyRank: the in-process runtime's own verification,
// fed one rank's output with a single fault, fails the job and names the
// mismatch. The last case is a rank that writes into an input file it
// aliases: the input was described before any rank ran, so the corrupted
// record fails the multiset check instead of being verified against
// itself.
func TestVerifyCatchesFaultyRank(t *testing.T) {
	coded := Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 4000, Seed: 71}
	flipValue := func(r kv.Records) kv.Records {
		r.Value(r.Len() / 2)[5] ^= 0x40
		return r
	}
	cases := []struct {
		name string
		spec Spec
		work workerFunc
		want string
	}{
		{"dropped record", coded, tamperOutput(1, func(r kv.Records) kv.Records {
			return r.Slice(1, r.Len())
		}), "rows"},
		{"duplicated record", coded, tamperOutput(1, func(r kv.Records) kv.Records {
			return r.Slice(0, 1).AppendRecords(r)
		}), "rows"},
		{"flipped value byte", coded, tamperOutput(1, flipValue), "checksum"},
		{"swapped adjacent pair", coded, tamperOutput(1, func(r kv.Records) kv.Records {
			r.Swap(10, 11)
			return r
		}), "not sorted"},
		// r = 1, so rank 1 is its file's only reader and the write races
		// with no other rank.
		{"write into aliased input", Spec{Algorithm: AlgTeraSort, K: 4, Rows: 4000, Seed: 71},
			func(ep transport.Endpoint, spec Spec, local job.Local, sink func(kv.Records) error, hooks engine.Hooks) (WorkerReport, error) {
				if ep.Rank() == 1 {
					flipValue(local.Input[1])
				}
				return runWorker(ep, spec, local, sink, hooks)
			}, "checksum"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := runLocal(context.Background(), c.spec, Options{}, runWorker); err != nil {
				t.Fatalf("healthy run: %v", err)
			}
			_, err := runLocal(context.Background(), c.spec, Options{}, c.work)
			if err == nil {
				t.Fatal("faulty rank passed verification")
			}
			if !strings.Contains(err.Error(), "verification failed") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name the %s mismatch", err, c.want)
			}
		})
	}
}

// TestSharedInputReleased: with one attempt allowed, the supervisor hands
// the files over and keeps none, and every rank lets go of them — and of
// the views its Map kept into them — once it has reduced, so after the
// last Reduce no input file is reachable. With a second attempt allowed
// the supervisor keeps them for it.
func TestSharedInputReleased(t *testing.T) {
	for _, attempts := range []int{1, 2} {
		spec := Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 8000, Seed: 52, MaxAttempts: attempts}
		var once sync.Once
		var refs []weak.Pointer[byte]
		var reduces atomic.Int32
		live := -1
		opts := Options{OnStage: func(rec trace.StageRecord) {
			if rec.Stage.String() != "Reduce" || reduces.Add(1) != int32(spec.K) {
				return
			}
			// The last rank has reduced: every file is unreachable unless
			// the supervisor still holds it.
			runtime.GC()
			live = 0
			for _, ref := range refs {
				if ref.Value() != nil {
					live++
				}
			}
		}}
		_, err := runLocal(context.Background(), spec, opts,
			func(ep transport.Endpoint, spec Spec, local job.Local, sink func(kv.Records) error, hooks engine.Hooks) (WorkerReport, error) {
				files := local.Input
				once.Do(func() {
					for _, f := range files {
						refs = append(refs, weak.Make(&f.Bytes()[0]))
					}
				})
				return runWorker(ep, spec, local, sink, hooks)
			})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := placement.Redundant(spec.K, spec.R, spec.Rows)
		if err != nil {
			t.Fatal(err)
		}
		if len(refs) != plan.NumFiles() {
			t.Fatalf("MaxAttempts %d: %d files handed over, plan has %d", attempts, len(refs), plan.NumFiles())
		}
		want := 0
		if attempts > 1 {
			want = len(refs)
		}
		if live != want {
			t.Fatalf("MaxAttempts %d: %d of %d input files alive after the last Reduce, want %d",
				attempts, live, len(refs), want)
		}
	}
}

// cancelOnCheck is a context that cancels itself at the nth look at its
// Err — a cancel that lands, deterministically, in the middle of whatever
// loop polls it.
type cancelOnCheck struct {
	context.Context
	cancel context.CancelFunc
	left   atomic.Int64
}

func (c *cancelOnCheck) Err() error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// TestCancelDuringPlacement: a cancel that arrives while the supervisor
// generates an in-memory job's input — a sortd drain, on a pool lease —
// returns the context's error, starts no rank, and leaves no goroutine,
// descriptor or spill entry behind.
func TestCancelDuringPlacement(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	lease, err := p.Reserve(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	leaks := snapshotLeaks()
	parent, cancel := context.WithCancel(context.Background())
	defer cancel()
	// 200 000 rows are 49 pieces of generation; the cancel lands at the
	// third piece any core starts.
	ctx := &cancelOnCheck{Context: parent, cancel: cancel}
	ctx.left.Store(3)
	spill := t.TempDir()
	spec := Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 200_000, Seed: 8, SpillDir: spill}
	if _, err := lease.Run(ctx, spec, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("job canceled during placement returned %v, want context.Canceled", err)
	}
	if st := p.Stats(); st.Ranks != 0 {
		t.Fatalf("%d rank lifecycles started after a cancel during placement", st.Ranks)
	}
	if err := leaks.check(spill); err != nil {
		t.Fatal(err)
	}
}

// TestInputDirSampledInMemory: an in-memory InputDir job reads its part
// files in the supervisor, so its ranks run on the verifier's splitters
// instead of sampling the files themselves. They are the splitters the
// out-of-core job's ranks sample, and both runs agree rank for rank. The
// report still names the directory. At 3001 rows and a sample of 70 the
// file boundaries fall off the global sample stride, so sampling the
// handed-over files would pick other rows than sampling the part files.
func TestInputDirSampledInMemory(t *testing.T) {
	const k = 4
	dir := writeDiskInput(t, kv.NewGenerator(19, kv.DistUniform).Generate(0, 3001), k)
	var reps []*JobReport
	for _, budget := range []int64{0, 16 * 1024} {
		spec := Spec{Algorithm: AlgTeraSort, K: k, InputDir: dir, Partitioning: "sample", SampleSize: 70,
			MemBudget: budget, SpillDir: t.TempDir()}
		rep, err := RunLocal(spec)
		if err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !rep.Validated || rep.Spec.InputDir != dir {
			t.Fatalf("budget %d: validated=%v, report names input dir %q", budget, rep.Validated, rep.Spec.InputDir)
		}
		reps = append(reps, rep)
	}
	for r := 0; r < k; r++ {
		mem, ooc := reps[0].Workers[r], reps[1].Workers[r]
		if mem.OutputChecksum != ooc.OutputChecksum || mem.OutputRows != ooc.OutputRows {
			t.Fatalf("rank %d: in-memory and out-of-core outputs differ", r)
		}
		for i := range mem.SplitterBounds {
			if !bytes.Equal(mem.SplitterBounds[i], ooc.SplitterBounds[i]) {
				t.Fatalf("rank %d: splitter %d differs in memory and out of core", r, i)
			}
		}
	}
}

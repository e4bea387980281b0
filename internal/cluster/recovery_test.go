package cluster

import (
	"bytes"
	"context"
	"errors"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"codedterasort/internal/extsort"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/stats"
	"codedterasort/internal/trace"
)

// recoverySpec is the base job of the recovery tests: small enough to keep
// them fast, big enough that every stage does real work.
func recoverySpec(alg Algorithm, rows int64) Spec {
	spec := Spec{Algorithm: alg, K: 4, Rows: rows, Seed: 23, KeepOutput: true}
	if alg == AlgCoded {
		spec.R = 2
	}
	return spec
}

// assertSameOutput asserts two job reports carry byte-identical sorted
// partitions (and both validated).
func assertSameOutput(t *testing.T, want, got *JobReport) {
	t.Helper()
	if !want.Validated || !got.Validated {
		t.Fatalf("validated: want-run %v, got-run %v", want.Validated, got.Validated)
	}
	for r := range want.Workers {
		w, g := want.Workers[r], got.Workers[r]
		if w.OutputRows != g.OutputRows || w.OutputChecksum != g.OutputChecksum {
			t.Fatalf("rank %d summary differs: (%d rows, %#x) vs (%d rows, %#x)",
				r, w.OutputRows, w.OutputChecksum, g.OutputRows, g.OutputChecksum)
		}
		if !bytes.Equal(w.Output.Bytes(), g.Output.Bytes()) {
			t.Fatalf("rank %d output bytes differ after recovery", r)
		}
	}
}

// TestFaultOnAbsentStageFails: a fault on a column the job's schedule
// never runs fails the job at once, naming the column and the mode,
// instead of never firing: Encode in a chunked job (the streaming Shuffle
// replaces it), CodeGen in a TeraSort job, uniform or sampled (groups of
// two have no communicator to build, and sampling is no stage).
func TestFaultOnAbsentStageFails(t *testing.T) {
	chunked := recoverySpec(AlgCoded, 2000)
	chunked.ChunkRows = 500
	chunked.Faults = []FaultSpec{{Rank: 1, Stage: "Encode", Kind: "kill"}}
	uniform := recoverySpec(AlgTeraSort, 2000)
	uniform.Faults = []FaultSpec{{Rank: 1, Stage: "CodeGen", Kind: "kill"}}
	sampled := uniform
	sampled.Partitioning = "sample"
	for _, c := range []struct {
		want string
		spec Spec
	}{
		{"kill fault at Pack/Encode, a stage the chunked schedule never runs", chunked},
		{"kill fault at CodeGen, a stage the monolithic schedule never runs", uniform},
		{"kill fault at CodeGen, a stage the monolithic schedule never runs", sampled},
	} {
		want, spec := c.want, c.spec
		spec.StageDeadline, spec.MaxAttempts = 5*time.Second, 2
		done := make(chan error, 1)
		go func() {
			_, err := RunLocal(spec)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want %q", err, want)
			}
		case <-time.After(time.Minute):
			t.Fatalf("job with an unreachable fault (%q) hung", want)
		}
	}
}

// TestRecoveryAcceptanceScenario is the issue's end-to-end scenario: one
// straggler (4x slow-down at Shuffle) and one mid-Map worker death in the
// same job. Recovery consumes one fault per attempt — the Map death
// first, the shuffle straggler on the re-execution — and the third attempt
// completes byte-identical to the healthy run, on both engines.
func TestRecoveryAcceptanceScenario(t *testing.T) {
	for _, alg := range []Algorithm{AlgTeraSort, AlgCoded} {
		t.Run(string(alg), func(t *testing.T) {
			spec := recoverySpec(alg, 4000)
			healthy, err := RunLocal(spec)
			if err != nil {
				t.Fatal(err)
			}
			faulty := spec
			faulty.Faults = []FaultSpec{
				{Rank: 3, Stage: "Shuffle", Kind: "slow", Factor: 4, Delay: 2 * time.Second},
				{Rank: 1, Stage: "Map", Kind: "kill"},
			}
			faulty.StageDeadline = 300 * time.Millisecond
			faulty.MaxAttempts = 3
			job, err := RunLocal(faulty)
			if err != nil {
				t.Fatal(err)
			}
			if job.Attempts != 3 || len(job.Recovered) != 2 {
				t.Fatalf("attempts=%d recovered=%v, want 3 attempts / 2 faults", job.Attempts, job.Recovered)
			}
			assertSameOutput(t, healthy, job)
			// The stage log keeps the whole recovery timeline: records from
			// all three attempts.
			seen := map[int]bool{}
			for _, rec := range job.Stages {
				seen[rec.Attempt] = true
			}
			if !seen[1] || !seen[2] || !seen[3] {
				t.Fatalf("stage log attempts %v, want records from attempts 1..3", seen)
			}
		})
	}
}

// TestDeadRankNoHang: with recovery exhausted (MaxAttempts 1), a job with
// a permanently dead rank must fail fast with the fault named — never hang
// at the dead rank's barrier.
func TestDeadRankNoHang(t *testing.T) {
	start := time.Now()
	spec := recoverySpec(AlgCoded, 2000)
	spec.Faults = []FaultSpec{{Rank: 1, Stage: "Shuffle", Kind: "kill"}}
	spec.MaxAttempts = 1
	_, err := RunLocal(spec)
	if err == nil {
		t.Fatal("job with a dead rank reported success")
	}
	if !strings.Contains(err.Error(), "rank 1 died") {
		t.Fatalf("error does not name the dead rank: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("dead-rank failure took %v — the no-hang property is broken", elapsed)
	}
}

// TestWorkerErrorNoHang: a genuine worker error (not an injected fault —
// here rank 2's input file is missing) must cancel the attempt and fail
// fast with the failing rank named, never strand the healthy peers at the
// next barrier. The job runs out of core, where each rank scans its own part
// file; an in-memory job's files are read by the supervisor, so there the
// missing file fails the job before any rank starts.
func TestWorkerErrorNoHang(t *testing.T) {
	dir := t.TempDir()
	gen := kv.NewGenerator(5, kv.DistUniform)
	for i := 0; i < 4; i++ {
		if i == 2 {
			continue // rank 2's part file is missing
		}
		recs := gen.Generate(int64(i)*1000, 1000)
		if err := os.WriteFile(extsort.PartFile(dir, i), recs.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RunLocal(Spec{Algorithm: AlgTeraSort, K: 4, InputDir: dir}); err == nil ||
		!strings.Contains(err.Error(), "part-00002") {
		t.Fatalf("in-memory job with a missing input file: %v, want the file named", err)
	}
	start := time.Now()
	_, err := RunLocal(Spec{Algorithm: AlgTeraSort, K: 4, InputDir: dir, MemBudget: 1 << 20, SpillDir: t.TempDir()})
	if err == nil {
		t.Fatal("job with a missing input file reported success")
	}
	if !strings.Contains(err.Error(), "rank 2 failed") {
		t.Fatalf("error does not name the failing rank: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("worker error took %v to surface — the no-hang property is broken", elapsed)
	}
}

// TestCanceledStallReturns: a job canceled while one rank sleeps out a
// 2 s job.FaultSlow stall returns within 100 ms of the cancel, that rank
// included, instead of once the stall's Delay has passed.
func TestCanceledStallReturns(t *testing.T) {
	spec := recoverySpec(AlgCoded, 4000)
	spec.Faults = []FaultSpec{{Rank: 1, Stage: "Map", Kind: job.FaultSlow, Delay: 2 * time.Second}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var canceledAt atomic.Int64
	opts := Options{OnStage: func(rec trace.StageRecord) {
		// Rank 0 is through Map; rank 1, whose Map is as short, stalls
		// before it reports its own.
		if rec.Node == 0 && rec.Stage == stats.StageMap {
			time.AfterFunc(200*time.Millisecond, func() {
				canceledAt.Store(time.Now().UnixNano())
				cancel()
			})
		}
	}}
	_, err := RunLocalOpts(ctx, spec, opts)
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if at := canceledAt.Load(); at == 0 {
		t.Fatal("the job returned before it was canceled")
	} else if late := returned.Sub(time.Unix(0, at)); late > 100*time.Millisecond {
		t.Fatalf("job returned %v after its cancel, during a 2 s stall", late)
	}
}

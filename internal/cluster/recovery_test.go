package cluster

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"

	"codedterasort/internal/extsort"
	"codedterasort/internal/kv"
)

// recoverySpec is the base job of the recovery tests: small enough to keep
// the matrix fast, big enough that every stage does real work.
func recoverySpec(alg Algorithm, rows int64) Spec {
	spec := Spec{Algorithm: alg, K: 4, Rows: rows, Seed: 23, KeepOutput: true}
	if alg == AlgCoded {
		spec.R = 2
	}
	return spec
}

// modeVariants applies the three execution modes to a base spec. The
// out-of-core variant keeps KeepOutput so outputs stay byte-comparable
// (budget runs with retained output still exercise the spill machinery).
func modeVariants(t *testing.T, base Spec) map[string]Spec {
	t.Helper()
	chunked := base
	chunked.ChunkRows = 500
	spill := base
	spill.MemBudget = base.Rows * 100 / 8
	spill.SpillDir = t.TempDir()
	return map[string]Spec{"mono": base, "chunked": chunked, "extsort": spill}
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

// stagesOf lists the timed stages of an algorithm x mode combination — the
// kill matrix's axis. The streaming modes collapse Pack/Encode, Shuffle and
// Unpack/Decode into the Shuffle stage.
func stagesOf(alg Algorithm, mode string) []string {
	switch {
	case alg == AlgTeraSort && mode == "mono":
		return []string{"Map", "Pack", "Shuffle", "Unpack", "Reduce"}
	case alg == AlgTeraSort:
		return []string{"Map", "Shuffle", "Reduce"}
	case mode == "mono":
		return []string{"CodeGen", "Map", "Encode", "Shuffle", "Decode", "Reduce"}
	default: // coded chunked and extsort
		return []string{"CodeGen", "Map", "Shuffle", "Reduce"}
	}
}

// deployments are the two launchers of the supervisor as tests drive them:
// RunLocal, and a coordinator with rejoining workers (rejoinTCP). prefix
// names the TCP axis of a test's subtests.
var deployments = []struct {
	prefix string
	run    func(*testing.T, Spec) (*JobReport, error)
}{
	{"", func(_ *testing.T, spec Spec) (*JobReport, error) { return RunLocal(spec) }},
	{"tcp/", func(t *testing.T, spec Spec) (*JobReport, error) { return rejoinTCP(t, spec, runWorker) }},
}

// TestRecoveryKillMatrix kills one rank at every timed stage of both
// engines under all three execution modes and asserts the supervised
// runtime recovers to byte-identical output: the crash is detected, the
// attempt canceled (no peer hangs at the dead rank's barrier), and the
// respawned re-execution reproduces the healthy run exactly. The tcp/
// cells run the same matrix on worker processes' protocol, with workers
// rejoining for the retry; there the output never rides the wire, so the
// per-rank digests are what must match the healthy TCP run.
func TestRecoveryKillMatrix(t *testing.T) {
	for _, dep := range deployments {
		for _, alg := range []Algorithm{AlgTeraSort, AlgCoded} {
			base := recoverySpec(alg, 6000)
			for mode, spec := range modeVariants(t, base) {
				healthy, err := dep.run(t, spec)
				if err != nil {
					t.Fatalf("%s%s/%s healthy: %v", dep.prefix, alg, mode, err)
				}
				for _, stage := range stagesOf(alg, mode) {
					t.Run(dep.prefix+string(alg)+"/"+mode+"/kill@"+stage, func(t *testing.T) {
						faulty := spec
						faulty.Faults = []FaultSpec{{Rank: 1, Stage: stage, Kind: "kill"}}
						faulty.StageDeadline = 5 * time.Second
						faulty.MaxAttempts = 2
						job, err := dep.run(t, faulty)
						if err != nil {
							t.Fatalf("recovery failed: %v", err)
						}
						if job.Attempts != 2 || len(job.Recovered) != 1 {
							t.Fatalf("attempts=%d recovered=%v, want 2 attempts / 1 fault", job.Attempts, job.Recovered)
						}
						if s := job.Recovered[0]; s.Rank != 1 || s.Reason != "died" {
							t.Fatalf("suspect %v, want rank 1 died", s)
						}
						assertSameOutput(t, healthy, job)
					})
				}
			}
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

// TestRecoveryKeepsTieOrder: with keys that repeat (64 distinct keys over
// 6 000 rows) the in-memory Reduce's order of equal keys is defined by input
// position alone, so neither Parallelism nor a kill-recovery attempt can
// move a byte of it.
func TestRecoveryKeepsTieOrder(t *testing.T) {
	for _, alg := range []Algorithm{AlgTeraSort, AlgCoded} {
		spec := recoverySpec(alg, 6000)
		spec.DistName, spec.Parallelism = "dupheavy", 1
		healthy, err := RunLocal(spec)
		if err != nil {
			t.Fatalf("%s healthy: %v", alg, err)
		}
		spec.Parallelism = 4
		spec.Faults = []FaultSpec{{Rank: 1, Stage: "Reduce", Kind: "kill"}}
		spec.StageDeadline, spec.MaxAttempts = 5*time.Second, 2
		job, err := RunLocal(spec)
		if err != nil {
			t.Fatalf("%s recovery: %v", alg, err)
		}
		if job.Attempts != 2 {
			t.Fatalf("%s: attempts=%d, want 2", alg, job.Attempts)
		}
		assertSameOutput(t, healthy, job)
	}
}

// TestRecoveryStraggler injects the acceptance scenario's straggler — a
// 4x slow-down at Shuffle with a stall far past the stage deadline — and
// asserts the deadline detector flags it and recovery reproduces the
// healthy output on both engines.
func TestRecoveryStraggler(t *testing.T) {
	for _, alg := range []Algorithm{AlgTeraSort, AlgCoded} {
		t.Run(string(alg), func(t *testing.T) {
			spec := recoverySpec(alg, 4000)
			healthy, err := RunLocal(spec)
			if err != nil {
				t.Fatal(err)
			}
			faulty := spec
			faulty.Faults = []FaultSpec{{Rank: 2, Stage: "Shuffle", Kind: "slow", Factor: 4, Delay: 2 * time.Second}}
			faulty.StageDeadline = 300 * time.Millisecond
			faulty.MaxAttempts = 2
			job, err := RunLocal(faulty)
			if err != nil {
				t.Fatal(err)
			}
			if len(job.Recovered) != 1 || job.Recovered[0].Rank != 2 || job.Recovered[0].Reason != "missed deadline" {
				t.Fatalf("recovered %v, want rank 2 missed deadline", job.Recovered)
			}
			assertSameOutput(t, healthy, job)
		})
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

// TestRecoveryDisabledByDefault: without StageDeadline or MaxAttempts the
// runtime behaves exactly as before for healthy jobs — one attempt, no
// recovery bookkeeping.
func TestRecoveryDisabledByDefault(t *testing.T) {
	job, err := RunLocal(recoverySpec(AlgTeraSort, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if job.Attempts != 1 || len(job.Recovered) != 0 {
		t.Fatalf("clean run reported attempts=%d recovered=%v", job.Attempts, job.Recovered)
	}
}

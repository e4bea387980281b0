package cluster

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codedterasort/internal/kv"
	"codedterasort/internal/stats"
)

// runTCP starts a coordinator and K worker goroutines speaking the real TCP
// protocol, and returns the coordinator's verdict plus every worker's
// error.
func runTCP(t *testing.T, spec Spec) (job *JobReport, workerErrs []error, jobErr error) {
	t.Helper()
	coord, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	workerErrs = make([]error, spec.K)
	var wg sync.WaitGroup
	for i := 0; i < spec.K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = RunWorker(coord.Addr(), WorkerOptions{})
		}(i)
	}
	job, jobErr = coord.RunJob(spec)
	wg.Wait()
	return job, workerErrs, jobErr
}

// rejoinTCP runs spec on a coordinator whose K workers run in a restart
// loop, the way a process supervisor keeps worker processes up: every
// worker that leaves — done, aborted or dead — is replaced by a fresh one
// until the job is over, so a retry finds K workers to register. work is
// every worker's body.
func rejoinTCP(t *testing.T, spec Spec, work workerFunc) (*JobReport, error) {
	t.Helper()
	coord, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var over atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < spec.K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !over.Load() {
				_ = joinJob(coord.Addr(), WorkerOptions{}, work)
			}
		}()
	}
	job, err := coord.RunJob(spec)
	over.Store(true)
	// Closing the listener resets the registrations no attempt accepted.
	coord.Close()
	wg.Wait()
	return job, err
}

// TestTCPMonitoredHealthy: the deadline-armed conversation (heartbeats and
// the watchdog on top of progress frames) carries a clean job end to end.
func TestTCPMonitoredHealthy(t *testing.T) {
	spec := Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 4000, Seed: 31,
		StageDeadline: 10 * time.Second, Heartbeat: 20 * time.Millisecond}
	job, workerErrs, err := runTCP(t, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	if !job.Validated {
		t.Fatal("monitored job not validated")
	}
}

// TestTCPStageLog: a TCP job's report carries the stage log its workers'
// progress frames fed — one record per (rank, timed stage) of the chunked
// coded schedule, summing per rank to the worker's reported breakdown.
func TestTCPStageLog(t *testing.T) {
	const k = 4
	spec := Spec{Algorithm: AlgCoded, K: k, R: 2, Rows: 4000, Seed: 32, ChunkRows: 300}
	job, workerErrs, err := runTCP(t, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	// Chunked coded ranks time CodeGen, Map, the streamed Shuffle and Reduce.
	timed := []stats.Stage{stats.StageCodeGen, stats.StageMap, stats.StageShuffle, stats.StageReduce}
	seen := map[[2]int]int{}
	for _, rec := range job.Stages {
		if rec.Attempt != 1 || rec.Err != "" {
			t.Fatalf("unexpected record %v", rec)
		}
		seen[[2]int{rec.Node, int(rec.Stage)}]++
	}
	if len(job.Stages) != k*len(timed) {
		t.Fatalf("%d stage records, want %d", len(job.Stages), k*len(timed))
	}
	for rank := 0; rank < k; rank++ {
		for _, st := range timed {
			if n := seen[[2]int{rank, int(st)}]; n != 1 {
				t.Fatalf("rank %d %v: %d records, want 1", rank, st, n)
			}
		}
	}
	checkStagesSumToTimes(t, job)
}

// TestTCPWorkerDeathFailsFast: a worker process dying mid-Map (simulated
// by the injected kill: the worker drops its coordinator connection and
// mesh without reporting) must not hang the job, deadline or not. The
// coordinator detects the broken connection, aborts the survivors, and
// fails fast naming the dead rank — not a casualty whose mesh peer
// vanished; every surviving worker returns instead of blocking at the dead
// rank's barrier.
func TestTCPWorkerDeathFailsFast(t *testing.T) {
	for _, c := range []struct {
		name      string
		deadline  time.Duration
		heartbeat time.Duration
	}{
		{"deadline", 5 * time.Second, 20 * time.Millisecond},
		{"no-deadline", 0, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			start := time.Now()
			spec := Spec{Algorithm: AlgTeraSort, K: 4, Rows: 4000, Seed: 32,
				StageDeadline: c.deadline, Heartbeat: c.heartbeat,
				Faults: []FaultSpec{{Rank: 1, Stage: "Map", Kind: "kill"}}}
			_, workerErrs, jobErr := runTCP(t, spec)
			if jobErr == nil {
				t.Fatal("job with a dead worker reported success")
			}
			if !strings.Contains(jobErr.Error(), "rank 1 died") {
				t.Fatalf("verdict does not name the dead rank: %v", jobErr)
			}
			for i, werr := range workerErrs {
				if werr == nil {
					t.Fatalf("worker %d reported success in an aborted job", i)
				}
			}
			if elapsed := time.Since(start); elapsed > 30*time.Second {
				t.Fatalf("death took %v to surface — fail-fast is broken", elapsed)
			}
		})
	}
}

// TestTCPDeathNamesScheduledStage: a worker that dies is blamed on the
// next stage of its job's own schedule, not on the next breakdown column:
// a TeraSort job has no CodeGen, so a death before any stage completes is
// at Map, and a chunked coded job's streaming Shuffle follows Map with no
// Pack/Encode between them.
func TestTCPDeathNamesScheduledStage(t *testing.T) {
	for _, c := range []struct {
		name string
		spec Spec
		want string
	}{
		{"terasort-map", Spec{Algorithm: AlgTeraSort, K: 4, Rows: 4000, Seed: 36,
			Faults: []FaultSpec{{Rank: 2, Stage: "Map", Kind: "kill"}}}, "rank 2 died at Map (attempt 1)"},
		{"chunked-shuffle", Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 4000, Seed: 36, ChunkRows: 300,
			Faults: []FaultSpec{{Rank: 2, Stage: "Shuffle", Kind: "kill"}}}, "rank 2 died at Shuffle (attempt 1)"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, _, jobErr := runTCP(t, c.spec)
			if jobErr == nil || !strings.Contains(jobErr.Error(), c.want) {
				t.Fatalf("verdict %v, want %q", jobErr, c.want)
			}
		})
	}
}

// TestTCPWorkerGoroutinesExit: every worker listens for aborts, deadline or
// not, and the listener (like the heartbeat sender) must die with its
// worker — a long-lived process joining job after job would otherwise
// pile them up — in a clean job and across a recovered one, whose first
// attempt's workers were killed or aborted. Goroutines that are already
// exiting get a moment to settle, as the benchmark's leak count does.
func TestTCPWorkerGoroutinesExit(t *testing.T) {
	spec := Spec{Algorithm: AlgCoded, K: 3, R: 2, Rows: 1500, Seed: 34}
	_, workerErrs, err := runTCP(t, spec)
	if err != nil {
		t.Fatal(err)
	}
	for i, werr := range workerErrs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	lingering := func() string {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		for _, fn := range []string{"cluster.listenAbort", "cluster.heartbeat"} {
			if strings.Contains(stacks, fn) {
				return fn
			}
		}
		return ""
	}
	settled := func(what string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for lingering() != "" && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if fn := lingering(); fn != "" {
			t.Fatalf("%s goroutine outlived its worker (%s job)", fn, what)
		}
	}
	settled("clean")
	spec.StageDeadline, spec.Heartbeat = 5*time.Second, 20*time.Millisecond
	spec.Faults = []FaultSpec{{Rank: 1, Stage: "Shuffle", Kind: "kill"}}
	if job, err := rejoinTCP(t, spec, runWorker); err != nil || job.Attempts != 2 {
		t.Fatalf("recovered job: %v (report %+v)", err, job)
	}
	settled("recovered")
}

// TestTCPRecoversWithMaxAttempts: a TCP job asking for recovery gets it. A
// worker killed mid-Shuffle is detected by its broken connection, the
// survivors are aborted, and the retry runs on the workers that register
// next — with no deadline armed, so the wait for them is unbounded — to
// the clean run's per-rank output digests.
func TestTCPRecoversWithMaxAttempts(t *testing.T) {
	spec := Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 4000, Seed: 35}
	healthy, err := rejoinTCP(t, spec, runWorker)
	if err != nil {
		t.Fatal(err)
	}
	faulty := spec
	faulty.MaxAttempts = 2
	faulty.Faults = []FaultSpec{{Rank: 2, Stage: "Shuffle", Kind: "kill"}}
	job, err := rejoinTCP(t, faulty, runWorker)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if job.Attempts != 2 || len(job.Recovered) != 1 || job.Recovered[0].Rank != 2 || job.Recovered[0].Reason != "died" {
		t.Fatalf("attempts=%d recovered=%v, want 2 attempts / rank 2 died", job.Attempts, job.Recovered)
	}
	assertSameOutput(t, healthy, job)
}

// TestTCPVerifyCatchesFaultyRank is TestVerifyCatchesFaultyRank over TCP,
// where the output never reaches the coordinator: each worker checks its
// own partition's order and membership and reports the digest it checked,
// so one faulty rank fails the job whether its fault breaks the order, the
// partition or the multiset.
func TestTCPVerifyCatchesFaultyRank(t *testing.T) {
	spec := Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 4000, Seed: 71}
	for _, c := range []struct {
		name   string
		tamper func(kv.Records) kv.Records
		want   string
	}{
		{"swapped adjacent pair", func(r kv.Records) kv.Records {
			r.Swap(10, 11)
			return r
		}, "not sorted"},
		{"key from another partition", func(r kv.Records) kv.Records {
			r.Key(0)[0] = 0 // below every key of partition 1, so still ascending
			return r
		}, "belongs to partition 0"},
		{"flipped value byte", func(r kv.Records) kv.Records {
			r.Value(r.Len() / 2)[5] ^= 0x40
			return r
		}, "checksum"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := rejoinTCP(t, spec, runWorker); err != nil {
				t.Fatalf("healthy run: %v", err)
			}
			_, err := rejoinTCP(t, spec, tamperOutput(1, c.tamper))
			if err == nil {
				t.Fatal("faulty rank passed verification over TCP")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name the %s mismatch", err, c.want)
			}
		})
	}
}

// TestTCPStragglerDetected: a worker stalled far past the stage deadline
// is flagged by the peer-relative detector over the progress frames, and
// the job aborts naming it.
func TestTCPStragglerDetected(t *testing.T) {
	spec := Spec{Algorithm: AlgTeraSort, K: 4, Rows: 4000, Seed: 33,
		StageDeadline: 300 * time.Millisecond, Heartbeat: 20 * time.Millisecond,
		Faults: []FaultSpec{{Rank: 2, Stage: "Shuffle", Kind: "slow", Factor: 1, Delay: 3 * time.Second}}}
	_, _, jobErr := runTCP(t, spec)
	if jobErr == nil {
		t.Fatal("job with a straggler past deadline reported success")
	}
	if !strings.Contains(jobErr.Error(), "rank 2 missed deadline") {
		t.Fatalf("verdict does not name the straggler: %v", jobErr)
	}
}

package cluster

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestTCPWorkerGoroutinesExit: every worker listens for aborts, deadline or
// not, and the listener (like the heartbeat sender) must die with its
// worker — a long-lived process joining job after job would otherwise
// pile them up. Goroutines that are already exiting get a moment to
// settle, as the benchmark's leak count does.
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
	deadline := time.Now().Add(2 * time.Second)
	for lingering() != "" && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if fn := lingering(); fn != "" {
		t.Fatalf("%s goroutine outlived its worker", fn)
	}
}

// TestTCPRejectsMaxAttempts: the coordinator runs a job once, so a spec
// asking for recovery by re-execution is refused up front — before any
// worker registers — instead of being accepted and then ignored.
func TestTCPRejectsMaxAttempts(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	done := make(chan error, 1)
	go func() {
		_, err := coord.RunJob(Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 4000, Seed: 35,
			StageDeadline: 5 * time.Second, MaxAttempts: 2})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.HasPrefix(err.Error(), "job: ") || !strings.Contains(err.Error(), "in-process only") {
			t.Fatalf("MaxAttempts 2 over TCP: got %v, want a job: in-process-only refusal", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RunJob waited for workers instead of refusing MaxAttempts 2")
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

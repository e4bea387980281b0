package cluster

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"codedterasort/internal/kv"
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
// every worker's body, and first the options of the first loop's workers.
// A job that succeeds must have had K workers return cleanly.
func rejoinTCP(t *testing.T, spec Spec, work workerFunc, first WorkerOptions) (*JobReport, error) {
	t.Helper()
	coord, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var over atomic.Bool
	var clean atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < spec.K; i++ {
		opts := WorkerOptions{}
		if i == 0 {
			opts = first
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !over.Load() {
				if joinJob(coord.Addr(), opts, work) == nil {
					clean.Add(1)
				}
			}
		}()
	}
	job, err := coord.RunJob(spec)
	over.Store(true)
	// Closing the listener resets the registrations no attempt accepted.
	coord.Close()
	wg.Wait()
	if err == nil && clean.Load() < int64(spec.K) {
		err = fmt.Errorf("%d of the last attempt's %d workers returned cleanly", clean.Load(), spec.K)
	}
	return job, err
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
			if _, err := rejoinTCP(t, spec, runWorker, WorkerOptions{}); err != nil {
				t.Fatalf("healthy run: %v", err)
			}
			_, err := rejoinTCP(t, spec, tamperOutput(1, c.tamper), WorkerOptions{})
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

package engine

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"codedterasort/internal/job"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

// twoStages is a minimal Map -> Reduce schedule whose bodies record what
// ran.
func twoStages(ran *[]stats.Stage, mu *sync.Mutex) []Stage {
	note := func(st stats.Stage) func(*Context) error {
		return func(*Context) error {
			mu.Lock()
			*ran = append(*ran, st)
			mu.Unlock()
			return nil
		}
	}
	return []Stage{{Column: stats.StageMap, Run: note(stats.StageMap)}, {Column: stats.StageReduce, Run: note(stats.StageReduce)}}
}

// TestKillFault: the killed rank exits with *KilledError before the faulty
// stage's body, hooks, and barrier; a supervisor closing the mesh unblocks
// the surviving peer with a transport error (the no-hang property).
func TestKillFault(t *testing.T) {
	mesh := memnet.NewMesh(2)
	defer mesh.Close()
	var mu sync.Mutex
	var ran [2][]stats.Stage
	var events [2][]StageEvent
	errs := [2]error{}
	var wg0, wg1 sync.WaitGroup
	spec := resolved(t, job.Spec{K: 2, Faults: []job.FaultSpec{{Rank: 1, Stage: "Reduce", Kind: job.FaultKill}}})
	run := func(r int, wg *sync.WaitGroup) {
		defer wg.Done()
		hooks := func(ev StageEvent) { events[r] = append(events[r], ev) }
		ep := transport.WithCollectives(mesh.Endpoint(r))
		_, errs[r] = Run(ep, twoStages(&ran[r], &mu), barrierNS, spec, stats.NewWallClock(), hooks)
	}
	wg0.Add(1)
	wg1.Add(1)
	go run(0, &wg0)
	go run(1, &wg1)
	wg1.Wait() // rank 1 dies at Reduce entry
	var killed *KilledError
	if !errors.As(errs[1], &killed) || killed.Rank != 1 || killed.Stage != stats.StageReduce {
		t.Fatalf("rank 1 error = %v, want KilledError at Reduce", errs[1])
	}
	if len(ran[1]) != 1 || ran[1][0] != stats.StageMap {
		t.Fatalf("killed rank ran %v, want [Map] only", ran[1])
	}
	if len(events[1]) != 1 {
		t.Fatalf("dead rank reported %d stage events, want 1 (death reports nothing)", len(events[1]))
	}
	// Rank 0 is stuck at the Reduce barrier; the supervisor's cancel
	// (mesh close) must unblock it rather than leaving it hung.
	mesh.Close()
	wg0.Wait()
	if errs[0] == nil {
		t.Fatal("surviving rank completed despite a dead peer")
	}
}

// TestSlowFault: the straggler's stage completes with its elapsed time
// inflated by the injected stall, visible to the hooks before the barrier.
func TestSlowFault(t *testing.T) {
	mesh := memnet.NewMesh(1)
	defer mesh.Close()
	var mu sync.Mutex
	var ran []stats.Stage
	var reduceElapsed time.Duration
	hooks := func(ev StageEvent) {
		if ev.Stage == stats.StageReduce {
			reduceElapsed = ev.Elapsed
		}
	}
	ep := transport.WithCollectives(mesh.Endpoint(0))
	const delay = 30 * time.Millisecond
	spec := resolved(t, job.Spec{K: 1, Faults: []job.FaultSpec{
		// The kill on the same column is listed second: the first wins.
		{Rank: 0, Stage: "Reduce", Kind: job.FaultSlow, Factor: 1, Delay: delay},
		{Rank: 0, Stage: "Sort", Kind: job.FaultKill}}})
	if _, err := Run(ep, twoStages(&ran, &mu), barrierNS, spec, stats.NewWallClock(), hooks); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran %v, want both stages", ran)
	}
	if reduceElapsed < delay {
		t.Fatalf("straggler stall not visible: Reduce elapsed %v < %v", reduceElapsed, delay)
	}
}

// TestFaultOnAbsentColumn: a fault on a column the schedule never runs
// fails the run before its first stage, naming the column and the mode,
// instead of never firing; another rank's fault is not this rank's check.
func TestFaultOnAbsentColumn(t *testing.T) {
	mesh := memnet.NewMesh(2)
	defer mesh.Close()
	var mu sync.Mutex
	var ran []stats.Stage
	spec := resolved(t, job.Spec{K: 2, Faults: []job.FaultSpec{
		{Rank: 0, Stage: "Encode", Kind: job.FaultKill},
		{Rank: 1, Stage: "Map", Kind: job.FaultKill}}})
	ep := transport.WithCollectives(mesh.Endpoint(0))
	_, err := Run(ep, twoStages(&ran, &mu), barrierNS, spec, stats.NewWallClock(), nil)
	if err == nil || !strings.Contains(err.Error(), "fault at Pack/Encode, a stage the monolithic schedule never runs") {
		t.Fatalf("err = %v, want the absent-column refusal", err)
	}
	if len(ran) != 0 {
		t.Fatalf("ran %v before refusing the fault", ran)
	}
}

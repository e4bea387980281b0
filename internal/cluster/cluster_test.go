package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"codedterasort/internal/partition"
	"codedterasort/internal/stats"
)

func TestRunLocalTeraSort(t *testing.T) {
	job, err := RunLocal(Spec{Algorithm: AlgTeraSort, K: 4, Rows: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !job.Validated {
		t.Fatalf("job not validated")
	}
	if len(job.Workers) != 4 {
		t.Fatalf("%d worker reports", len(job.Workers))
	}
	if job.ShuffleLoadBytes <= 0 || job.WireBytes < job.ShuffleLoadBytes {
		t.Fatalf("byte accounting wrong: load=%d wire=%d", job.ShuffleLoadBytes, job.WireBytes)
	}
}

func TestRunLocalCoded(t *testing.T) {
	job, err := RunLocal(Spec{Algorithm: AlgCoded, K: 5, R: 2, Rows: 5000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !job.Validated {
		t.Fatalf("job not validated")
	}
	if job.Times[stats.StageCodeGen] <= 0 {
		t.Fatalf("coded job missing CodeGen time")
	}
}

func TestCodedLoadBelowTeraSort(t *testing.T) {
	// The headline comparison as the cluster runtime reports it.
	tera, err := RunLocal(Spec{Algorithm: AlgTeraSort, K: 6, Rows: 12000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	coded, err := RunLocal(Spec{Algorithm: AlgCoded, K: 6, R: 3, Rows: 12000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	gain := float64(tera.ShuffleLoadBytes) / float64(coded.ShuffleLoadBytes)
	// Theory: r * ((K-1)/K)/(1-r/K) = 3 * (5/6)/(1/2) = 5.
	if gain < 4.0 || gain > 5.5 {
		t.Fatalf("load gain %.2f, want about 5", gain)
	}
}

func TestRunLocalKeepOutput(t *testing.T) {
	job, err := RunLocal(Spec{Algorithm: AlgCoded, K: 3, R: 2, Rows: 900, Seed: 4, KeepOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	for _, w := range job.Workers {
		if w.Output.Len() == 0 && w.OutputRows > 0 {
			t.Fatalf("worker %d output not kept", w.Rank)
		}
		rows += int64(w.Output.Len())
	}
	if rows != 900 {
		t.Fatalf("kept outputs cover %d rows", rows)
	}
}

func TestRunLocalRateLimited(t *testing.T) {
	// With an egress cap the shuffle slows measurably; correctness holds.
	spec := Spec{Algorithm: AlgTeraSort, K: 3, Rows: 3000, Seed: 5,
		RateMbps: 400} // 300 KB payload/node at 400 Mbps ~ 6 ms/message
	job, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !job.Validated {
		t.Fatalf("not validated")
	}
	if job.Times[stats.StageShuffle] < time.Millisecond {
		t.Fatalf("rate limit had no effect: shuffle %v", job.Times[stats.StageShuffle])
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Algorithm: "quicksort", K: 2},
		{Algorithm: AlgTeraSort, K: 0},
		{Algorithm: AlgCoded, K: 4, R: 0},
		{Algorithm: AlgCoded, K: 4, R: 9},
		{Algorithm: AlgTeraSort, K: 2, Rows: -1},
		{Algorithm: AlgTeraSort, K: 2, StageDeadline: -time.Second},
		{Algorithm: AlgTeraSort, K: 2, MaxAttempts: -1},
		// Heartbeats must flow faster than the liveness deadline, or every
		// healthy worker is condemned before its first ping.
		{Algorithm: AlgTeraSort, K: 2, StageDeadline: time.Second, Heartbeat: time.Second},
		{Algorithm: AlgTeraSort, K: 2, Faults: []FaultSpec{{Rank: 5, Stage: "Map", Kind: "kill"}}},
		{Algorithm: AlgTeraSort, K: 2, Faults: []FaultSpec{{Rank: 0, Stage: "Nope", Kind: "kill"}}},
		{Algorithm: AlgTeraSort, K: 2, Faults: []FaultSpec{{Rank: 0, Stage: "Map", Kind: "maim"}}},
		{Algorithm: AlgTeraSort, K: 2, DistName: "pareto"},
		{Algorithm: AlgTeraSort, K: 2, Partitioning: "quantile"},
		{Algorithm: AlgTeraSort, K: 2, Partitioning: "sample", SampleSize: -1},
		{Algorithm: AlgTeraSort, K: 2, SampleSize: 100},
		{Algorithm: AlgTeraSort, K: 2, Splitters: partition.UniformBounds(2)},
		{Algorithm: AlgTeraSort, K: 2, Partitioning: "sample", Splitters: partition.UniformBounds(4)},
		{Algorithm: AlgTeraSort, K: 2, Partitioning: "sample", Splitters: [][]byte{{0x01}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d accepted: %+v", i, s)
		}
	}
}

func TestSpecWireRoundTrip(t *testing.T) {
	s := Spec{Algorithm: AlgCoded, K: 16, R: 5, Rows: 1 << 20, Seed: 9,
		TreeMulticast: true, RateMbps: 100, PerMessage: 50 * time.Millisecond,
		StageDeadline: time.Second, Heartbeat: 100 * time.Millisecond, MaxAttempts: 2,
		DistName: "zipf", Partitioning: "sample", SampleSize: 2048,
		Splitters: partition.UniformBounds(16),
		Faults:    []FaultSpec{{Rank: 3, Stage: "Shuffle", Kind: "slow", Factor: 4, Delay: time.Second}}}
	p, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalSpec(p)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", s) {
		t.Fatalf("roundtrip: %+v != %+v", got, s)
	}
	if _, err := UnmarshalSpec([]byte("{")); err == nil {
		t.Fatalf("bad JSON accepted")
	}
}

// runDistributed runs a coordinator and K worker "processes" (goroutines
// speaking the real TCP protocol end to end).
func runDistributed(t *testing.T, spec Spec) (*JobReport, []error) {
	t.Helper()
	coord, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	workerErrs := make([]error, spec.K)
	var wg sync.WaitGroup
	for i := 0; i < spec.K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = RunWorker(coord.Addr(), WorkerOptions{})
		}(i)
	}
	job, err := coord.RunJob(spec)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	return job, workerErrs
}

func TestDistributedTeraSort(t *testing.T) {
	spec := Spec{Algorithm: AlgTeraSort, K: 4, Rows: 4000, Seed: 7}
	job, workerErrs := runDistributed(t, spec)
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !job.Validated {
		t.Fatalf("distributed job not validated")
	}
	if job.Times.Total() <= 0 {
		t.Fatalf("no stage times collected")
	}
}

func TestDistributedCoded(t *testing.T) {
	spec := Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 4000, Seed: 8}
	job, workerErrs := runDistributed(t, spec)
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !job.Validated {
		t.Fatalf("distributed job not validated")
	}
	if job.ShuffleLoadBytes <= 0 {
		t.Fatalf("no multicast load recorded")
	}
}

func TestDistributedRejectsBadSpec(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if _, err := coord.RunJob(Spec{Algorithm: "bogus", K: 1}); err == nil {
		t.Fatalf("bad spec accepted")
	}
}

func TestWorkerFailsFastOnBadCoordinator(t *testing.T) {
	if err := RunWorker("127.0.0.1:1", WorkerOptions{}); err == nil {
		t.Fatalf("dial to dead coordinator should fail")
	}
	if err := RunWorker("127.0.0.1:1", WorkerOptions{MeshHost: "127.0.0.1"}); err == nil {
		t.Fatalf("dial to dead coordinator should fail")
	}
}

func TestDistributedMatchesLocal(t *testing.T) {
	// Same spec over both engines: identical output checksums per rank
	// (the data path is deterministic; only timing differs).
	spec := Spec{Algorithm: AlgCoded, K: 3, R: 2, Rows: 1500, Seed: 11}
	local, err := RunLocal(spec)
	if err != nil {
		t.Fatal(err)
	}
	dist, workerErrs := runDistributed(t, spec)
	for i, err := range workerErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	for rank := range local.Workers {
		if local.Workers[rank].OutputChecksum != dist.Workers[rank].OutputChecksum {
			t.Fatalf("rank %d checksum differs between engines", rank)
		}
		if local.Workers[rank].OutputRows != dist.Workers[rank].OutputRows {
			t.Fatalf("rank %d row count differs between engines", rank)
		}
	}
}

func TestJobReportTotal(t *testing.T) {
	job := &JobReport{Times: stats.Seconds(1, 2, 3, 4, 5, 6)}
	if job.Total() != 21 {
		t.Fatalf("Total = %v", job.Total())
	}
}

// TestRunLocalStageLog: the engines' per-stage hooks feed the job report's
// cluster-wide stage timeline — every worker reports each timed stage of
// its schedule, in completion order.
func TestRunLocalStageLog(t *testing.T) {
	job, err := RunLocal(Spec{Algorithm: AlgCoded, K: 4, R: 2, Rows: 2000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// The monolithic coded schedule times six stages per worker.
	if want := 4 * 6; len(job.Stages) != want {
		t.Fatalf("%d stage records, want %d", len(job.Stages), want)
	}
	perNode := map[int]int{}
	for i, r := range job.Stages {
		perNode[r.Node]++
		if r.Err != "" {
			t.Fatalf("stage record %d carries error %q", i, r.Err)
		}
		if i > 0 && r.At < job.Stages[i-1].At {
			t.Fatalf("stage records out of completion order at %d", i)
		}
	}
	for n := 0; n < 4; n++ {
		if perNode[n] != 6 {
			t.Fatalf("node %d reported %d stages, want 6", n, perNode[n])
		}
	}
	// The stage-synchronous protocol means stage s of any node completes
	// before stage s+2 of any other begins; the weaker per-node invariant
	// checked here is that each node saw the canonical order.
	lastPerNode := map[int]stats.Stage{}
	for _, r := range job.Stages {
		if prev, ok := lastPerNode[r.Node]; ok && r.Stage < prev {
			t.Fatalf("node %d ran %v after %v", r.Node, r.Stage, prev)
		}
		lastPerNode[r.Node] = r.Stage
	}
}

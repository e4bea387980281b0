package cluster

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"codedterasort/internal/coded"
	"codedterasort/internal/kv"
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

// TestWireBytesAreRCopiesOfLoad: each multicast packet crosses exactly r
// links (the root's send and r-1 relays' forwards), so the wire bytes
// summed over the ranks are r times the shuffle load, which counts a packet
// once — monolithic and chunked. Per rank the relays carry part of it; at
// r = 1 there is nothing to relay and every rank's wire bytes are its load.
func TestWireBytesAreRCopiesOfLoad(t *testing.T) {
	for _, c := range []struct{ k, r int }{{4, 1}, {4, 2}, {6, 3}} {
		for _, chunkRows := range []int{0, 64} {
			t.Run(fmt.Sprintf("k=%d/r=%d/chunk=%d", c.k, c.r, chunkRows), func(t *testing.T) {
				job, err := RunLocal(Spec{Algorithm: AlgCoded, K: c.k, R: c.r, Rows: 3000, Seed: 5, ChunkRows: chunkRows})
				if err != nil {
					t.Fatal(err)
				}
				var wire, sent int64
				for _, w := range job.Workers {
					wire += w.WireBytes
					sent += w.SentBytes
					if c.r == 1 && w.WireBytes != w.SentBytes {
						t.Fatalf("rank %d: wire %d bytes, sent %d", w.Rank, w.WireBytes, w.SentBytes)
					}
				}
				if sent == 0 || wire != int64(c.r)*sent {
					t.Fatalf("wire %d bytes, want r=%d x sent %d", wire, c.r, sent)
				}
			})
		}
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

// checkStagesSumToTimes asserts the one-measurement invariant: for every
// rank, the successful attempt's stage records in job.Stages sum, column by
// column, to exactly the worker's reported Summary.Times.
func checkStagesSumToTimes(t *testing.T, job *JobReport) {
	t.Helper()
	sums := map[int]stats.Breakdown{}
	for _, rec := range job.Stages {
		if rec.Attempt == job.Attempts {
			b := sums[rec.Node]
			b[rec.Stage] += rec.Elapsed
			sums[rec.Node] = b
		}
	}
	for _, w := range job.Workers {
		if w.Times != sums[w.Rank] {
			t.Fatalf("rank %d: Summary.Times %v, stage records sum to %v", w.Rank, w.Times, sums[w.Rank])
		}
	}
}

// TestStagesSumToTimes: the breakdown a worker reports and the stage log
// are one measurement, in every execution mode and at r = 1 and 2, and
// after a recovery the successful attempt's records alone make up the
// breakdown.
func TestStagesSumToTimes(t *testing.T) {
	const rows = 2400
	modes := map[string]func(*Spec){
		"mono":    func(*Spec) {},
		"chunked": func(s *Spec) { s.ChunkRows = 300 },
		"spill":   func(s *Spec) { s.MemBudget = rows * 100 / 16 },
		"recovered": func(s *Spec) {
			s.Faults, s.MaxAttempts = []FaultSpec{{Rank: 1, Stage: "Shuffle", Kind: "kill"}}, 2
		},
	}
	for name, mode := range modes {
		for _, r := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/r=%d", name, r), func(t *testing.T) {
				spec := Spec{Algorithm: AlgCoded, K: 4, R: r, Rows: rows, Seed: 12}
				mode(&spec)
				job, err := RunLocal(spec)
				if err != nil {
					t.Fatal(err)
				}
				if name == "recovered" && job.Attempts != 2 {
					t.Fatalf("attempts=%d, want 2", job.Attempts)
				}
				checkStagesSumToTimes(t, job)
			})
		}
	}
}

// TestReportWireForm pins the TCP report frame: WorkerReport's JSON is the
// frame, and it carries the keys (and values) the hand-written reportMsg
// marshaled at commit 726ecd0 — compared as documents, since a peer reads
// keys, not their order. The kept output never rides the frame.
func TestReportWireForm(t *testing.T) {
	var times stats.Breakdown
	for i := range times {
		times[i] = time.Duration(i+1) * time.Millisecond
	}
	rep := WorkerReport{Rank: 3, WireBytes: 15, Output: kv.NewGenerator(1, kv.DistUniform).Generate(0, 2),
		Summary: coded.Summary{Times: times, OutputRows: 11, OutputChecksum: 12, SentBytes: 13, SentOps: 14,
			ChunksSent: 16, ChunksReceived: 17, SpilledRuns: 18, Spill: stats.SpillStats{RawBytes: 19, DiskBytes: 20},
			MergeOVCDecided: 21, MergeFullCompares: 22, SplitterBounds: [][]byte{{1, 2}, {3}}}}
	for _, c := range []struct {
		msg  reportMsg
		want string
	}{
		{reportMsg{WorkerReport: rep}, `{"rank":3,"times":[1000000,2000000,3000000,4000000,5000000,6000000],"output_rows":11,"output_checksum":12,"sent_payload_bytes":13,"multicast_ops":14,"wire_bytes":15,"chunks_sent":16,"chunks_received":17,"spilled_runs":18,"spill":{"raw_bytes":19,"disk_bytes":20},"merge_ovc_decided":21,"merge_full_compares":22,"splitter_bounds":["AQI=","Aw=="]}`},
		{reportMsg{WorkerReport: WorkerReport{Rank: 2}, Err: "boom"}, `{"rank":2,"err":"boom","times":[0,0,0,0,0,0],"output_rows":0,"output_checksum":0,"sent_payload_bytes":0,"multicast_ops":0,"wire_bytes":0}`},
	} {
		p, err := json.Marshal(c.msg)
		if err != nil {
			t.Fatal(err)
		}
		var got, want map[string]any
		if err := json.Unmarshal(p, &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(c.want), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("report frame moved:\n got  %s\n want %s", p, c.want)
		}
		var back reportMsg
		if err := json.Unmarshal([]byte(c.want), &back); err != nil {
			t.Fatal(err)
		}
		c.msg.Output = kv.Records{}
		if !reflect.DeepEqual(back, c.msg) {
			t.Fatalf("parent's frame decodes to %+v, want %+v", back, c.msg)
		}
	}
}

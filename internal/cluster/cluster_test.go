package cluster

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"codedterasort/internal/coded"
	"codedterasort/internal/kv"
	"codedterasort/internal/stats"
)

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

func TestJobReportTotal(t *testing.T) {
	job := &JobReport{Times: stats.Seconds(1, 2, 3, 4, 5, 6)}
	if job.Total() != 21 {
		t.Fatalf("Total = %v", job.Total())
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

package job_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"codedterasort/internal/extsort"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
)

// invalid is one job that no entry point may accept: a spec, what is
// attached to it in-process, and the stem every layer's error must carry.
type invalid struct {
	name  string
	spec  job.Spec
	local job.Local
	stem  string
}

// wire reports whether the case is invalid as a bare spec — the form the
// entry points that take no attachment (the cluster runtime, sortd) see.
func (c invalid) wire() bool { return c.local.Part == nil }

func tera(s job.Spec) job.Spec  { s.Algorithm = job.AlgTeraSort; return s }
func coded(s job.Spec) job.Spec { s.Algorithm = job.AlgCoded; return s }

// invalidJobs is the one validation table: every check any layer used to
// make (cluster.Spec.Validate, the engine's former policy normalization,
// coded's and mapreduce's normalize) has a row, and TestEveryEntryPointRejects feeds
// each row to every entry point.
var invalidJobs = []invalid{
	{"unknown algorithm", job.Spec{Algorithm: "quicksort", K: 2}, job.Local{}, "unknown algorithm"},
	{"no algorithm", job.Spec{K: 2}, job.Local{}, "unknown algorithm"},
	{"K zero", tera(job.Spec{}), job.Local{}, "K=0"},
	{"K negative", coded(job.Spec{K: -1, R: 1}), job.Local{}, "K=-1"},
	{"K past the node-set width", tera(job.Spec{K: 65}), job.Local{}, "out of range"},
	{"r zero", coded(job.Spec{K: 4}), job.Local{}, "r=0 outside"},
	{"r above K", coded(job.Spec{K: 4, R: 9}), job.Local{}, "r=9 outside"},
	{"unknown placement", coded(job.Spec{K: 4, R: 2, Placement: "nosuch"}), job.Local{}, "unknown strategy"},
	{"resolvable uncoded", tera(job.Spec{K: 4, Placement: "resolvable"}), job.Local{}, "requires the coded algorithm"},
	{"resolvable K not a multiple of r", coded(job.Spec{K: 5, R: 2, Placement: "resolvable"}), job.Local{}, "resolvable"},
	{"negative rows", tera(job.Spec{K: 2, Rows: -1}), job.Local{}, "negative rows"},
	{"negative chunk rows", coded(job.Spec{K: 3, R: 2, ChunkRows: -1}), job.Local{}, "negative chunk rows"},
	{"negative window", coded(job.Spec{K: 3, R: 2, Window: -1}), job.Local{}, "negative window"},
	{"negative mem budget", coded(job.Spec{K: 3, R: 2, MemBudget: -1}), job.Local{}, "negative mem budget"},
	{"negative parallelism", tera(job.Spec{K: 2, Parallelism: -1}), job.Local{}, "negative parallelism"},
	{"chunk rows over the spill block cap", tera(job.Spec{K: 3, MemBudget: 1 << 30, ChunkRows: extsort.MaxBlockRows + 1}), job.Local{}, "spill block cap"},
	{"chunk rows over the cap, coded", coded(job.Spec{K: 3, R: 2, MemBudget: 1 << 30, ChunkRows: extsort.MaxBlockRows + 1}), job.Local{}, "spill block cap"},
	// Each spool buffers one ChunkRows block whatever the budget.
	{"spool blocks over the mem budget", tera(job.Spec{K: 8, MemBudget: 25 << 10, ChunkRows: 1 << 12}), job.Local{}, "over the mem budget 25600"},
	{"input dir coded", coded(job.Spec{K: 2, R: 1, InputDir: "/data"}), job.Local{}, "TeraSort-only"},
	{"negative stage deadline", tera(job.Spec{K: 2, StageDeadline: -time.Second}), job.Local{}, "negative stage deadline"},
	{"negative max attempts", tera(job.Spec{K: 2, MaxAttempts: -1}), job.Local{}, "negative max attempts"},
	{"unknown distribution", tera(job.Spec{K: 2, DistName: "pareto"}), job.Local{}, "unknown distribution"},
	{"unknown partitioning", tera(job.Spec{K: 2, Partitioning: "quantile"}), job.Local{}, "unknown partitioning policy"},
	{"negative sample size", tera(job.Spec{K: 2, Partitioning: "sample", SampleSize: -1}), job.Local{}, "negative sample size"},
	{"sample size without policy", tera(job.Spec{K: 2, SampleSize: 100}), job.Local{}, "sample size set without"},
	{"splitters without policy", tera(job.Spec{K: 2, Splitters: partition.UniformBounds(2)}), job.Local{}, "splitters set without"},
	{"splitters for another K", tera(job.Spec{K: 2, Partitioning: "sample", Splitters: partition.UniformBounds(4)}), job.Local{}, "4 partitions for K=2"},
	{"malformed splitter", tera(job.Spec{K: 2, Partitioning: "sample", Splitters: [][]byte{{0x01}}}), job.Local{}, "splitters:"},
	{"fault rank out of range", tera(job.Spec{K: 2, Faults: []job.FaultSpec{{Rank: 5, Stage: "Map", Kind: "kill"}}}), job.Local{}, "fault rank 5"},
	{"fault rank negative", tera(job.Spec{K: 2, Faults: []job.FaultSpec{{Rank: -1, Stage: "Map", Kind: "kill"}}}), job.Local{}, "fault rank -1"},
	{"fault stage unknown", tera(job.Spec{K: 2, Faults: []job.FaultSpec{{Stage: "Nope", Kind: "kill"}}}), job.Local{}, "unknown stage"},
	{"fault kind unknown", tera(job.Spec{K: 2, Faults: []job.FaultSpec{{Stage: "Map", Kind: "maim"}}}), job.Local{}, "unknown fault kind"},
	{"fault factor negative", tera(job.Spec{K: 2, Faults: []job.FaultSpec{{Stage: "Map", Kind: "slow", Factor: -1}}}), job.Local{}, "negative fault stall"},
	{"fault delay negative", tera(job.Spec{K: 2, Faults: []job.FaultSpec{{Stage: "Map", Kind: "slow", Delay: -time.Second}}}), job.Local{}, "negative fault stall"},

	// The process-local attachments, checked against the spec.
	{"explicit partitioner with sampling", tera(job.Spec{K: 2, Partitioning: "sample"}),
		job.Local{Part: partition.NewUniform(2)}, "explicit partitioner with sample"},
	{"partitioner for another K", tera(job.Spec{K: 2}),
		job.Local{Part: partition.NewUniform(7)}, "7 partitions for K=2"},
}

func TestSpecValidation(t *testing.T) {
	for _, c := range invalidJobs {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.spec.Resolve(c.local)
			if err == nil {
				t.Fatalf("accepted: %+v", c.spec)
			}
			if !strings.HasPrefix(err.Error(), "job: ") || !strings.Contains(err.Error(), c.stem) {
				t.Fatalf("error %q, want prefix \"job: \" and stem %q", err, c.stem)
			}
			if verr := c.spec.Validate(); c.wire() != (verr != nil) {
				t.Fatalf("Validate() = %v on a case whose bare spec is invalid=%v", verr, c.wire())
			}
		})
	}
}

// TestResolveDerives: what a spec leaves unset, Resolve fills in — once,
// for every layer — and what it sets, Resolve leaves alone.
func TestResolveDerives(t *testing.T) {
	resolve := func(s job.Spec, l job.Local) *job.Resolved {
		t.Helper()
		r, err := s.Resolve(l)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Bare TeraSort: r = 1 whatever R says, clique, uniform keys and split,
	// no streaming, no recovery, no heartbeat.
	r := resolve(tera(job.Spec{K: 4, R: 3, Rows: 100}), job.Local{})
	if r.R != 1 || r.Strat.Kind() != placement.KindClique || r.Strat.NumFiles() != 4 ||
		r.KeyDist != kv.DistUniform || r.Part.NumPartitions() != 4 ||
		r.ChunkRows != 0 || r.Window != 0 || r.MaxAttempts != 1 || r.Heartbeat != 0 {
		t.Fatalf("bare TeraSort resolved to %+v", r)
	}
	if r.Sampled() || r.Redundancy() != 1 {
		t.Fatalf("bare TeraSort accessors: %v %v", r.Sampled(), r.Redundancy())
	}
	// Coded, resolvable, named distribution.
	r = resolve(coded(job.Spec{K: 6, R: 3, Placement: "resolvable", DistName: "zipf"}), job.Local{})
	if r.R != 3 || r.Strat.Kind() != placement.KindResolvable || r.KeyDist != kv.DistZipf ||
		r.Dist() != kv.DistZipf {
		t.Fatalf("coded resolvable resolved to %+v", r)
	}
	// Pipelining fills the default window; explicit knobs are untouched.
	if r = resolve(coded(job.Spec{K: 3, R: 2, ChunkRows: 5}), job.Local{}); r.ChunkRows != 5 || r.Window != job.DefaultWindow {
		t.Fatalf("chunked: chunk rows %d window %d", r.ChunkRows, r.Window)
	}
	if r = resolve(coded(job.Spec{K: 3, R: 2, ChunkRows: 50, Window: 9}), job.Local{}); r.ChunkRows != 50 || r.Window != 9 {
		t.Fatalf("explicit knobs perturbed: chunk rows %d window %d", r.ChunkRows, r.Window)
	}
	// A budget implies streaming: a derived chunk size and the window.
	r = resolve(tera(job.Spec{K: 4, MemBudget: 1 << 20}), job.Local{})
	if r.ChunkRows != extsort.BudgetChunkRows(1<<20, 4, 0) || r.Window != job.DefaultWindow {
		t.Fatalf("budget: chunk rows %d window %d", r.ChunkRows, r.Window)
	}
	// A stage deadline arms recovery and the heartbeat.
	r = resolve(tera(job.Spec{K: 2, StageDeadline: 3 * time.Second}), job.Local{})
	if r.MaxAttempts != 3 || r.Heartbeat != time.Second {
		t.Fatalf("deadline: attempts %d heartbeat %v", r.MaxAttempts, r.Heartbeat)
	}
	r = resolve(tera(job.Spec{K: 2, StageDeadline: 3 * time.Second, MaxAttempts: 5}), job.Local{})
	if r.MaxAttempts != 5 || r.Heartbeat != time.Second {
		t.Fatalf("explicit recovery knob perturbed: attempts %d heartbeat %v", r.MaxAttempts, r.Heartbeat)
	}
	// Sampled partitioning: the round resolves the partitioner unless the
	// bounds are preset.
	if r = resolve(tera(job.Spec{K: 4, Partitioning: "sample", SampleSize: 100}), job.Local{}); r.Part != nil || !r.Sampled() {
		t.Fatalf("sampled: partitioner %v", r.Part)
	}
	r = resolve(tera(job.Spec{K: 4, Partitioning: "sample", Splitters: partition.UniformBounds(4)}), job.Local{})
	if sp, ok := r.Part.(partition.Splitters); !ok || sp.NumPartitions() != 4 {
		t.Fatalf("preset splitters: partitioner %v", r.Part)
	}
	// An explicit partitioner and the input ride through.
	part := partition.NewUniform(2)
	load := func(int) (kv.Records, error) { return kv.Records{}, nil }
	if r = resolve(tera(job.Spec{K: 2}), job.Local{Part: part, Load: load}); r.Part != part || r.Load == nil {
		t.Fatalf("attachment dropped: %+v", r.Local)
	}
	// The submitted spec is not modified.
	s := tera(job.Spec{K: 4, MemBudget: 1 << 20})
	resolve(s, job.Local{})
	if s.ChunkRows != 0 || s.Window != 0 || s.MaxAttempts != 0 {
		t.Fatalf("Resolve modified its receiver: %+v", s)
	}
}

func TestFaultsWithout(t *testing.T) {
	s := job.Spec{Faults: []job.FaultSpec{
		{Rank: 1, Stage: "Map", Kind: job.FaultKill},
		{Rank: 1, Stage: "Shuffle", Kind: job.FaultSlow, Factor: 4},
		{Rank: 2, Stage: "Shuffle", Kind: job.FaultSlow, Delay: time.Second},
	}}
	if got := s.FaultsWithout(nil); len(got) != 3 {
		t.Fatalf("nothing consumed: %v", got)
	}
	rest := s.FaultsWithout(map[int]bool{1: true})
	if len(rest) != 1 || rest[0].Rank != 2 {
		t.Fatalf("FaultsWithout(1) = %v", rest)
	}
	if len(s.Faults) != 3 {
		t.Fatalf("FaultsWithout modified the spec: %v", s.Faults)
	}
}

// fullSpec has every field set, to a value no other field has.
var fullSpec = job.Spec{Algorithm: job.AlgCoded, K: 4, R: 2, Placement: "resolvable", Rows: 1 << 20, Seed: 9,
	DistName: "zipf", Partitioning: "sample", SampleSize: 2048,
	Splitters: [][]byte{{0x40}, {0x80, 0x01}, {0xc0, 0xff, 0xee}}, RateMbps: 100,
	PerMessage: 50 * time.Millisecond, ParallelShuffle: true,
	StragglerFactor: 4, StragglerRank: 1, KeepOutput: true,
	ChunkRows: 4096, Window: 8, MemBudget: 1 << 26, SpillDir: "/tmp/spill", InputDir: "/data/in",
	Parallelism: 2,
	Faults: []job.FaultSpec{{Rank: 3, Stage: "Shuffle", Kind: "slow", Factor: 4, Delay: time.Second},
		{Rank: 1, Stage: "Map", Kind: "kill"}},
	StageDeadline: time.Second, MaxAttempts: 2}

// The JSON of fullSpec and of a minimal spec as cluster.Spec marshaled them
// at commit 726ecd0, before the struct moved here: the coordinator's assign
// frame and the sortd job body carry exactly these bytes.
const (
	fullSpecJSON = `{"algorithm":"codedterasort","k":4,"r":2,"placement":"resolvable","rows":1048576,"seed":9,"dist":"zipf","partitioning":"sample","sample_size":2048,"splitters":["QA==","gAE=","wP/u"],"rate_mbps":100,"per_message":50000000,"parallel_shuffle":true,"straggler_factor":4,"straggler_rank":1,"keep_output":true,"chunk_rows":4096,"window":8,"mem_budget":67108864,"spill_dir":"/tmp/spill","input_dir":"/data/in","parallelism":2,"faults":[{"rank":3,"stage":"Shuffle","kind":"slow","factor":4,"delay":1000000000},{"rank":1,"stage":"Map","kind":"kill"}],"stage_deadline":1000000000,"max_attempts":2}`
	minSpecJSON  = `{"algorithm":"terasort","k":2,"rows":0,"seed":0}`
)

func TestSpecWireRoundTrip(t *testing.T) {
	// Every field of the golden spec is set, so a field added later without
	// extending the golden fails here.
	v := reflect.ValueOf(fullSpec)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("fullSpec leaves %s unset", v.Type().Field(i).Name)
		}
	}
	for _, c := range []struct {
		spec job.Spec
		want string
	}{{fullSpec, fullSpecJSON}, {tera(job.Spec{K: 2}), minSpecJSON}} {
		p, err := json.Marshal(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(p) != c.want {
			t.Fatalf("wire form moved:\n got  %s\n want %s", p, c.want)
		}
		var got job.Spec
		if err := json.Unmarshal(p, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, c.spec) {
			t.Fatalf("roundtrip: %+v != %+v", got, c.spec)
		}
	}
	var s job.Spec
	if err := json.Unmarshal([]byte("{"), &s); err == nil {
		t.Fatal("bad JSON accepted")
	}
}

// TestExpectedSplitters: the coordinator-side replay returns nothing for a
// uniform job, the preset bounds verbatim, and otherwise K-1 bounds that
// depend only on (input, sample size).
func TestExpectedSplitters(t *testing.T) {
	if b, err := tera(job.Spec{K: 4, Rows: 1000}).ExpectedSplitters(); b != nil || err != nil {
		t.Fatalf("uniform job: %v, %v", b, err)
	}
	preset := partition.UniformBounds(4)
	b, err := tera(job.Spec{K: 4, Partitioning: "sample", Splitters: preset}).ExpectedSplitters()
	if err != nil || !reflect.DeepEqual(b, preset) {
		t.Fatalf("preset bounds: %v, %v", b, err)
	}
	s := tera(job.Spec{K: 4, Rows: 5000, Seed: 3, DistName: "zipf", Partitioning: "sample", SampleSize: 500})
	b, err = s.ExpectedSplitters()
	if err != nil || len(b) != 3 {
		t.Fatalf("replayed bounds: %v, %v", b, err)
	}
	again, _ := coded(job.Spec{K: 4, R: 2, Rows: 5000, Seed: 3, DistName: "zipf", Partitioning: "sample", SampleSize: 500}).ExpectedSplitters()
	if !reflect.DeepEqual(b, again) {
		t.Fatal("bounds depend on the algorithm, not on the input alone")
	}
	if _, err := tera(job.Spec{K: 2, Partitioning: "sample", InputDir: t.TempDir()}).ExpectedSplitters(); err == nil {
		t.Fatal("missing part files accepted")
	}
}

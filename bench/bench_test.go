package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload, the ladder and the traced run at a small
// size, so that a change which breaks the benchmark breaks a test.
func TestSmoke(t *testing.T) {
	c := config{seed: 7, rows: 20000, outDir: t.TempDir()}
	defer func(reps int) { probeReps = reps }(probeReps)
	probeReps = 1
	for i, w := range workloads {
		p := plan{
			setups: 1, untraced: budget{samples: 2},
			trace: true, traced: budget{samples: 1}, ladder: i == 0,
		}
		res, spans, err := runWorkload(w, c, p)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Failed != 0 || res.Attempted < 3 || len(res.CountDrift) != 0 {
			t.Errorf("%s: failed %d of %d, errors %v, drift %v", w.Name, res.Failed, res.Attempted, res.Errors, res.CountDrift)
		}
		for _, d := range endToEnd {
			if s := res.EndToEnd[d.Name]; s.N == 0 || !(s.Median > 0) {
				t.Errorf("%s: %s = %+v, want a positive median", w.Name, d.Name, s)
			}
		}
		for _, d := range perLayer {
			if _, ok := res.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, d.Name)
			}
		}
		if n := res.PerLayer["cluster.leaks"].Value; n != 0 {
			t.Errorf("%s: cluster.leaks = %v", w.Name, n)
		}
		if res.RootS <= 0 || math.Abs(res.SelfSumS-res.RootS) > 0.02*res.RootS {
			t.Errorf("%s: self times sum to %v s, root spans last %v s", w.Name, res.SelfSumS, res.RootS)
		}
		if i == 0 {
			for _, name := range []string{"kv.sort_mb_s", "codec.encode_mb_s", "extsort.merge_mb_s", "transport.tcpnet_mb_s", "model.cap_speedup_pred"} {
				if v := res.PerLayer[name].Value; !(v > 0) {
					t.Errorf("ladder: %s = %v, want > 0", name, v)
				}
			}
		}
		path := filepath.Join(c.outDir, "trace-"+w.Name+".json")
		if err := writeChromeTrace(path, spans); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if p, err := os.ReadFile(path); err != nil || json.Unmarshal(p, &doc) != nil || len(doc.TraceEvents) == 0 {
			t.Errorf("%s: trace file does not load: %v", w.Name, err)
		}
	}
	if entries, _ := os.ReadDir(filepath.Join(c.outDir, "tmp")); len(entries) != 0 {
		t.Errorf("%d entries left under the spill root", len(entries))
	}
}

func TestSummarize(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	var xs []float64
	for i := 10; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := summarize(xs)
	if s.N != 10 || s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.Min != 1 || s.Max != 10 {
		t.Errorf("summarize(1..10) = %+v", s)
	}
	if got := s.spread(); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
	if s := summarize([]float64{3, 1, 2}); s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("summarize(3,1,2) = %+v", s)
	}
	if s := summarize([]float64{4}); s.Q1 != 4 || s.Median != 4 || s.Q3 != 4 || s.spread() != 0 {
		t.Errorf("summarize(4) = %+v", s)
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}

	// A percentile is reported only with at least ten samples beyond it.
	ramp := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	for _, tc := range []struct {
		n     int
		tailP float64
		tail  float64
	}{
		{20, 0, 0}, {39, 0, 0}, {40, 75, 30}, {100, 90, 90}, {200, 95, 190}, {1000, 99, 990},
	} {
		if s := summarize(ramp(tc.n)); s.TailP != tc.tailP || s.Tail != tc.tail {
			t.Errorf("n=%d: tail p%v = %v, want p%v = %v", tc.n, s.TailP, s.Tail, tc.tailP, tc.tail)
		}
	}
}

// TestSelfTimes checks the attribution on a hand-built tree:
//
//	root        [0, 100)
//	  a         [10, 40)     on its own
//	  b, c      [50, 90), [60, 100)  concurrent siblings, c clipped by root
//	    b1      [55, 60)     child of b
//	  stray     [120, 130)   outside root: clipped to nothing
func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Name: "root", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(40)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(50), End: ms(90)},
		{ID: 4, Parent: 1, Name: "c", Start: ms(60), End: ms(110)},
		{ID: 5, Parent: 3, Name: "b1", Start: ms(55), End: ms(60)},
		{ID: 6, Parent: 1, Name: "stray", Start: ms(120), End: ms(130)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: ms(10 + 10),   // [0,10) and [40,50)
		2: ms(30),        // alone
		3: ms(5 + 30/2),  // [50,55) alone, [60,90) shared with c
		4: ms(30/2 + 10), // [60,90) shared with b, [90,100) alone
		5: ms(5),         // [55,60) covers b there
		6: 0,
	}
	var sum time.Duration
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
		sum += self[id]
	}
	if sum != ms(100) {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
	rows := selfTable(spans)
	if len(rows) != 6 || rows[0].Name != "root" || rows[0].Self != 0.02 || rows[0].Busy != 0.1 {
		t.Errorf("selfTable = %+v", rows)
	}
}

func TestJudgePair(t *testing.T) {
	tight := func(m float64) summary { return summary{N: 10, Median: m, Q1: m * 0.99, Q3: m * 1.01} }
	wide := summary{N: 10, Median: 1, Q1: 0.8, Q3: 1.1}
	few := summary{N: 3, Median: 1, Q1: 0.5, Q3: 1.5}
	for _, tc := range []struct {
		parent, change summary
		want           verdict
	}{
		{tight(1), tight(1.09), unchanged},
		{tight(1), tight(0.91), unchanged},
		{tight(1), tight(1.11), regressed},
		{tight(1), tight(0.89), improved},
		{wide, tight(1), unresolved},
		{tight(1), wide, unresolved},
		{few, few, unchanged},
	} {
		if _, got := judgePair(tc.parent, tc.change, 0.10); got != tc.want {
			t.Errorf("judgePair(%v -> %v) = %s, want %s", tc.parent.Median, tc.change.Median, got, tc.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	result := func(job float64, shuffle float64, failed int) *suiteResult {
		s := summary{N: 10, Median: job, Q1: job, Q3: job}
		return &suiteResult{Workloads: []*workloadResult{{
			Name: "uncoded_mem", Attempted: 10, Failed: failed,
			EndToEnd: map[string]summary{"setup_s": s, "job_s": s, "sort_s": s},
			PerLayer: map[string]metricValue{"cluster.shuffle_bytes": {Value: shuffle, Unit: "B"}},
		}}}
	}
	same := compareResults(result(1, 100, 0), result(1.02, 100, 0), io.Discard)
	if same.verdicts[unchanged] != len(endToEnd) || same.mismatches != 0 || same.moreFailed != 0 {
		t.Errorf("like results: %+v", same)
	}
	// +22% is inside setup_s's bound and outside the other two.
	worse := compareResults(result(1, 100, 0), result(1.22, 101, 1), io.Discard)
	if worse.verdicts[regressed] != 2 || worse.mismatches != 1 || worse.moreFailed != 1 {
		t.Errorf("worse result: %+v", worse)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the driver together: same
// workloads in the same order, same metrics, units, directions and bounds,
// and every name within the contract's alphabet.
func TestBenchmarkJSON(t *testing.T) {
	p, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(p)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || strings.Join(doc.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command %v, paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the driver", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := doc.Workloads[i]
		checkName(w.Name)
		if got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the driver %q (or the reasons differ)", i, got.Name, w.Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	checkMetrics := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the driver", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			checkName(d.Name)
			if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
			}
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the driver %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25)) {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the driver", d.Name, g.Bound, d.Bound)
			}
		}
	}
	checkMetrics("end_to_end", doc.EndToEnd, endToEnd, true)
	checkMetrics("per_layer", doc.PerLayer, perLayer, false)
}

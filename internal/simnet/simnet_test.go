package simnet

import (
	"math"
	"testing"

	"codedterasort/internal/stats"
)

// within reports |got/want - 1| <= tol.
func within(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got/want-1) <= tol
}

func simulate(t *testing.T, k, r int, coded bool) (stats.Breakdown, Report) {
	t.Helper()
	b, rep, err := Simulate(Workload{Rows: Rows12GB, K: k, R: r, Coded: coded}, Default())
	if err != nil {
		t.Fatal(err)
	}
	return b, rep
}

func TestTable1TeraSortBreakdownShape(t *testing.T) {
	// Every simulated Table I stage lands within 35% of the paper's cell,
	// and the headline structure holds: shuffle dominates (>95% of total).
	b, _ := simulate(t, 16, 1, false)
	paper := PaperRows12GB[0].Times
	for s := stats.StageMap; s < stats.NumStages; s++ {
		if !within(b[s].Seconds(), paper[s].Seconds(), 0.35) {
			t.Fatalf("%v: sim %.2fs vs paper %.2fs", s, b[s].Seconds(), paper[s].Seconds())
		}
	}
	if frac := b[stats.StageShuffle].Seconds() / b.Total().Seconds(); frac < 0.95 {
		t.Fatalf("shuffle fraction %.3f, paper reports 98.4%%", frac)
	}
}

func TestTables2And3SpeedupShape(t *testing.T) {
	// The paper's totals: K=16 r=3 2.16x, r=5 3.39x; K=20 r=3 1.97x,
	// r=5 2.20x. The simulation must reproduce the orderings the paper
	// discusses and land within 30% of each speedup.
	cases := []struct {
		k, r    int
		speedup float64
	}{
		{16, 3, 2.16}, {16, 5, 3.39}, {20, 3, 1.97}, {20, 5, 2.20},
	}
	base := map[int]float64{}
	for _, k := range []int{16, 20} {
		b, _ := simulate(t, k, 1, false)
		base[k] = b.Total().Seconds()
	}
	got := map[[2]int]float64{}
	for _, c := range cases {
		b, _ := simulate(t, c.k, c.r, true)
		sp := base[c.k] / b.Total().Seconds()
		got[[2]int{c.k, c.r}] = sp
		if !within(sp, c.speedup, 0.30) {
			t.Fatalf("K=%d r=%d: speedup %.2f vs paper %.2f", c.k, c.r, sp, c.speedup)
		}
	}
	// Orderings the paper highlights: more redundancy helps at both K;
	// speedup shrinks as K grows for fixed r (Section V-C).
	if got[[2]int{16, 5}] <= got[[2]int{16, 3}] {
		t.Fatalf("K=16: r=5 should beat r=3: %v", got)
	}
	if got[[2]int{20, 3}] >= got[[2]int{16, 3}] {
		t.Fatalf("r=3: K=20 speedup should fall below K=16: %v", got)
	}
	if got[[2]int{20, 5}] >= got[[2]int{16, 5}] {
		t.Fatalf("r=5: K=20 speedup should fall below K=16: %v", got)
	}
}

func TestShuffleGainBelowR(t *testing.T) {
	// Section V-C: the shuffle-stage gain is slightly below r because of
	// the multicast penalty (e.g. 945.72/412.22 = 2.3 < 3 at K=16, r=3).
	for _, tc := range []struct{ k, r int }{{16, 3}, {16, 5}, {20, 3}, {20, 5}} {
		base, _ := simulate(t, tc.k, 1, false)
		codedB, _ := simulate(t, tc.k, tc.r, true)
		gain := base[stats.StageShuffle].Seconds() / codedB[stats.StageShuffle].Seconds()
		if gain >= float64(tc.r) {
			t.Fatalf("K=%d r=%d: shuffle gain %.2f not < r", tc.k, tc.r, gain)
		}
		if gain < float64(tc.r)*0.55 {
			t.Fatalf("K=%d r=%d: shuffle gain %.2f too small", tc.k, tc.r, gain)
		}
	}
}

func TestMapTimeScalesWithR(t *testing.T) {
	// Paper: coded Map is ~r x the TeraSort Map (ratios 3.2 and 5.8).
	base, _ := simulate(t, 16, 1, false)
	for _, r := range []int{3, 5} {
		b, _ := simulate(t, 16, r, true)
		got := b[stats.StageMap].Seconds() / base[stats.StageMap].Seconds()
		if !within(got, float64(r), 0.25) {
			t.Fatalf("r=%d: map ratio %.2f", r, got)
		}
	}
}

func TestCodeGenGrowsWithGroups(t *testing.T) {
	// CodeGen time proportional to C(K, r+1): r=5 at K=20 must dwarf all
	// other configurations (paper: 140.91 s).
	times := map[[2]int]float64{}
	for _, tc := range []struct{ k, r int }{{16, 3}, {16, 5}, {20, 3}, {20, 5}} {
		b, rep := simulate(t, tc.k, tc.r, true)
		times[[2]int{tc.k, tc.r}] = b[stats.StageCodeGen].Seconds()
		wantGroups := map[[2]int]int64{
			{16, 3}: 1820, {16, 5}: 8008, {20, 3}: 4845, {20, 5}: 38760,
		}[[2]int{tc.k, tc.r}]
		if rep.Groups != wantGroups {
			t.Fatalf("K=%d r=%d: %d groups, want %d", tc.k, tc.r, rep.Groups, wantGroups)
		}
	}
	if !(times[[2]int{20, 5}] > times[[2]int{16, 5}] &&
		times[[2]int{16, 5}] > times[[2]int{16, 3}] &&
		times[[2]int{20, 3}] > times[[2]int{16, 3}]) {
		t.Fatalf("CodeGen ordering wrong: %v", times)
	}
	// Exact proportionality to group count.
	if !within(times[[2]int{20, 5}]/times[[2]int{16, 3}], 38760.0/1820.0, 0.01) {
		t.Fatalf("CodeGen not proportional to C(K,r+1)")
	}
}

// TestCodeGenTimeFitsPaper: one per-group constant puts every simulated
// CodeGen cell within 2x of the measured one (6.06, 23.47, 19.32 and
// 140.91 s).
func TestCodeGenTimeFitsPaper(t *testing.T) {
	for _, pr := range PaperRows12GB {
		if !pr.Coded {
			continue
		}
		b, _ := simulate(t, pr.K, pr.R, true)
		got, measured := b[stats.StageCodeGen].Seconds(), pr.Times[stats.StageCodeGen].Seconds()
		if got < measured/2 || got > measured*2 {
			t.Fatalf("K=%d r=%d: CodeGen %.2fs vs measured %.2fs", pr.K, pr.R, got, measured)
		}
	}
}

func TestShuffledBytesMatchTheory(t *testing.T) {
	// TeraSort moves (K-1)/K x 12 GB; coded moves ~ (1/r)(1-r/K) x 12 GB.
	const d = 12e9
	_, rep := simulate(t, 16, 1, false)
	if !within(rep.ShuffledBytes, d*15/16, 0.02) {
		t.Fatalf("uncoded shuffled %.3g", rep.ShuffledBytes)
	}
	_, repC := simulate(t, 16, 3, true)
	if !within(repC.ShuffledBytes, d*(1.0/3)*(13.0/16), 0.02) {
		t.Fatalf("coded shuffled %.3g", repC.ShuffledBytes)
	}
	if rep.Messages != 16*15 {
		t.Fatalf("messages = %d", rep.Messages)
	}
	if repC.Multicasts != 1820*4 {
		t.Fatalf("multicasts = %d, want C(16,4)*4", repC.Multicasts)
	}
}

func TestSimulationDeterministic(t *testing.T) {
	a, repA, err := Simulate(Workload{Rows: Rows12GB, K: 16, R: 3, Coded: true}, Default())
	if err != nil {
		t.Fatal(err)
	}
	b, repB, err := Simulate(Workload{Rows: Rows12GB, K: 16, R: 3, Coded: true}, Default())
	if err != nil {
		t.Fatal(err)
	}
	if a != b || repA != repB {
		t.Fatalf("simulation not deterministic")
	}
}

func TestWorkloadValidation(t *testing.T) {
	cm := Default()
	bad := []Workload{
		{Rows: 100, K: 0},
		{Rows: 100, K: 4, R: 5, Coded: true},
		{Rows: 0, K: 4},
		{Rows: -1, K: 4},
		{Rows: 100, K: 70},
	}
	for i, w := range bad {
		if _, _, err := Simulate(w, cm); err == nil {
			t.Fatalf("case %d accepted: %+v", i, w)
		}
	}
}

func TestRowsSmallerThanFiles(t *testing.T) {
	// Degenerate but legal: fewer rows than files. Loads are tiny; the
	// simulation must not divide by zero or go negative.
	b, rep, err := Simulate(Workload{Rows: 10, K: 16, R: 5, Coded: true}, Default())
	if err != nil {
		t.Fatal(err)
	}
	if b.Total() < 0 || rep.ShuffledBytes < 0 {
		t.Fatalf("negative results: %v %v", b.Total(), rep.ShuffledBytes)
	}
}

func TestGenerateTable2(t *testing.T) {
	tables, err := Tables(Default())
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[1].Simulated
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Label != "TeraSort" || rows[0].Speedup != 0 {
		t.Fatalf("baseline row wrong: %+v", rows[0])
	}
	if rows[1].Speedup <= 1 || rows[2].Speedup <= rows[1].Speedup {
		t.Fatalf("speedups not increasing in r: %.2f, %.2f", rows[1].Speedup, rows[2].Speedup)
	}
	out := stats.RenderTable("Table II", rows)
	if len(out) == 0 {
		t.Fatalf("empty render")
	}
}

func TestGenerateTable1And3(t *testing.T) {
	tables, err := Tables(Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("%d tables", len(tables))
	}
	if rows := tables[0].Simulated; len(rows) != 1 || rows[0] != tables[1].Simulated[0] {
		t.Fatalf("Table I should be Table II's TeraSort row alone, got %+v", rows)
	}
	if rows := tables[2].Simulated; len(rows) != 3 {
		t.Fatalf("Table III rows = %d", len(rows))
	}
}

func TestCompareCoversEveryPaperCell(t *testing.T) {
	cells, err := Compare(Default())
	if err != nil {
		t.Fatal(err)
	}
	// 2 TeraSort rows x 6 cells (5 stages + total) + 4 coded rows x 7.
	want := 2*6 + 4*7
	if len(cells) != want {
		t.Fatalf("%d cells, want %d", len(cells), want)
	}
	// Aggregate fidelity: the mean |ratio-1| across all cells stays under
	// 25%, and no total is off by more than 30%.
	var sum float64
	for _, c := range cells {
		sum += math.Abs(c.Ratio() - 1)
		if c.Stage == "Total" && !within(c.SimSec, c.PaperSec, 0.30) {
			t.Fatalf("%s total: sim %.1f vs paper %.1f", c.Row, c.SimSec, c.PaperSec)
		}
	}
	if mean := sum / float64(len(cells)); mean > 0.25 {
		t.Fatalf("mean cell error %.2f", mean)
	}
	if out := RenderComparison(cells); len(out) < 100 {
		t.Fatalf("thin comparison output")
	}
}

func TestCostModelWireTime(t *testing.T) {
	cm := Default()
	// 12.5 MB at 100 Mbps = 1 s + overhead.
	got := cm.WireTime(12.5e6)
	want := cm.UnicastOverhead.Seconds() + 1.0
	if !within(got.Seconds(), want, 0.001) {
		t.Fatalf("WireTime = %v", got)
	}
	if cm.MulticastTime(12.5e6, 1) >= cm.MulticastTime(12.5e6, 5) {
		t.Fatalf("multicast penalty not monotone in r")
	}
}

// TestPaperTableLookup: each table's published rows are PaperRows12GB's at
// its K, in order, beside as many simulated rows.
func TestPaperTableLookup(t *testing.T) {
	tables, err := Tables(Default())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]PaperRow{PaperRows12GB[:1], PaperRows12GB[:3], PaperRows12GB[3:]} {
		tab := tables[i]
		if len(tab.Paper) != len(want) || len(tab.Simulated) != len(want) {
			t.Fatalf("%s: %d published, %d simulated rows, want %d", tab.Title, len(tab.Paper), len(tab.Simulated), len(want))
		}
		for j, pr := range want {
			if got := tab.Paper[j]; got.Label != pr.Label || got.Times != pr.Times || got.Speedup != pr.Speedup {
				t.Fatalf("%s row %d: %+v, want %+v", tab.Title, j, got, pr)
			}
		}
	}
}

func BenchmarkSimulateTable2Row(b *testing.B) {
	cm := Default()
	for i := 0; i < b.N; i++ {
		if _, _, err := Simulate(Workload{Rows: Rows12GB, K: 16, R: 3, Coded: true}, cm); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateK20R5(b *testing.B) {
	cm := Default()
	for i := 0; i < b.N; i++ {
		if _, _, err := Simulate(Workload{Rows: Rows12GB, K: 20, R: 5, Coded: true}, cm); err != nil {
			b.Fatal(err)
		}
	}
}

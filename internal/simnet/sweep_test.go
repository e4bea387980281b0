package simnet

import (
	"strings"
	"testing"

	"codedterasort/internal/placement"
	"codedterasort/internal/stats"
)

// curve simulates the coded job at 12 GB for every (K, r) pair.
func curve(t *testing.T, kind placement.Kind, krs ...[2]int) []Point {
	t.Helper()
	ws := make([]Workload, len(krs))
	for i, kr := range krs {
		ws[i] = Workload{Rows: Rows12GB, K: kr[0], R: kr[1], Coded: true, Placement: kind}
	}
	pts, err := Curve(ws, Default())
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

// rs is the r curve at K: (K, r) for every r in lo..hi.
func rs(k, lo, hi int) [][2]int {
	var out [][2]int
	for r := lo; r <= hi; r++ {
		out = append(out, [2]int{k, r})
	}
	return out
}

func TestSweepRTrends(t *testing.T) {
	pts := curve(t, placement.KindClique, rs(16, 1, 7)...)
	if len(pts) != 7 {
		t.Fatalf("%d points", len(pts))
	}
	for i, p := range pts {
		if i == 0 {
			continue
		}
		prev := pts[i-1]
		// Section V-C: shuffle time falls with r; Map rises ~linearly;
		// CodeGen rises with C(K, r+1).
		if p.Times[stats.StageShuffle] >= prev.Times[stats.StageShuffle] {
			t.Fatalf("shuffle not decreasing at r=%d", p.R)
		}
		if p.Times[stats.StageMap] <= prev.Times[stats.StageMap] {
			t.Fatalf("map not increasing at r=%d", p.R)
		}
		if p.Times[stats.StageCodeGen] <= prev.Times[stats.StageCodeGen] {
			t.Fatalf("codegen not increasing at r=%d (groups %d vs %d)", p.R, p.Report.Groups, prev.Report.Groups)
		}
	}
}

// TestCurveROneIsTeraSort: the r = 1 point of a curve is the TeraSort
// baseline, at exactly 1.00x and with no CodeGen or groups, not a coded
// job that happens to have r = 1.
func TestCurveROneIsTeraSort(t *testing.T) {
	for _, k := range []int{4, 16, 20} {
		p := curve(t, placement.KindClique, [2]int{k, 1})[0]
		base, rep, err := Simulate(Workload{Rows: Rows12GB, K: k}, Default())
		if err != nil {
			t.Fatal(err)
		}
		if p.Speedup != 1 || p.Times != base || p.Report != rep || p.Coded {
			t.Fatalf("K=%d r=1: %.3fx, %v, %+v; want TeraSort's %v, %+v at 1.00x", k, p.Speedup, p.Times, p.Report, base, rep)
		}
	}
}

func TestSweepRSpeedupPeaksAtModerateR(t *testing.T) {
	// "for small values of r (r < 6) we observe overall reduction in
	// execution time... as we further increase r, the CodeGen time will
	// dominate... and the speedup decreases" (Section V-C). At K=20 the
	// C(20, r+1) group count makes CodeGen dominate within the
	// storage-feasible range (paper footnote 6 caps r), so the peak is
	// interior.
	const maxR = 8
	pts := curve(t, placement.KindClique, rs(20, 1, maxR)...)
	best := pts[0]
	for _, p := range pts {
		if p.Speedup > best.Speedup {
			best = p
		}
	}
	if best.R < 3 || best.R > 6 {
		t.Fatalf("optimal r=%d (speedup %.2f), expected a moderate interior value", best.R, best.Speedup)
	}
	if best.Speedup <= pts[0].Speedup || best.Speedup <= pts[maxR-1].Speedup {
		t.Fatalf("peak not interior: %.2f at r=%d vs %.2f and %.2f at the ends",
			best.Speedup, best.R, pts[0].Speedup, pts[maxR-1].Speedup)
	}
}

func TestSweepKSpeedupDecreases(t *testing.T) {
	pts := curve(t, placement.KindClique, [2]int{8, 3}, [2]int{12, 3}, [2]int{16, 3}, [2]int{20, 3}, [2]int{24, 3})
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup >= pts[i-1].Speedup {
			t.Fatalf("speedup not decreasing at K=%d: %.3f >= %.3f",
				pts[i].K, pts[i].Speedup, pts[i-1].Speedup)
		}
	}
}

// TestCurvePlacements: at equal (K, r) the resolvable design needs fewer
// groups and files than the clique scheme but shuffles more bytes, its
// groups having r members instead of r + 1 (DESIGN.md §15).
func TestCurvePlacements(t *testing.T) {
	for _, k := range []int{6, 12, 24} {
		cl := curve(t, placement.KindClique, [2]int{k, 3})[0]
		re := curve(t, placement.KindResolvable, [2]int{k, 3})[0]
		if cl.Placement != placement.KindClique || re.Placement != placement.KindResolvable {
			t.Fatalf("K=%d: placements %q and %q", k, cl.Placement, re.Placement)
		}
		if re.Report.Groups >= cl.Report.Groups || re.Files >= cl.Files {
			t.Fatalf("K=%d: resolvable %d groups %d files vs clique %d and %d",
				k, re.Report.Groups, re.Files, cl.Report.Groups, cl.Files)
		}
		if re.Report.ShuffledBytes <= cl.Report.ShuffledBytes {
			t.Fatalf("K=%d: resolvable shuffles %.3g B, clique %.3g B", k, re.Report.ShuffledBytes, cl.Report.ShuffledBytes)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	for _, w := range []Workload{
		{Rows: Rows12GB, K: 16, R: 0, Coded: true},
		{Rows: Rows12GB, K: 2, R: 3, Coded: true},
		{Rows: Rows12GB, K: 6, R: 1, Coded: true, Placement: placement.KindResolvable},
	} {
		if _, err := Curve([]Workload{w}, Default()); err == nil {
			t.Fatalf("%+v accepted", w)
		}
	}
}

func TestRenderSweep(t *testing.T) {
	out := RenderCurve("r sweep", curve(t, placement.KindClique, rs(8, 1, 2)...))
	for _, want := range []string{"r sweep", "Speedup", "Groups", "TeraSort", "clique", "1.00x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

package model

import (
	"math"
	"testing"
	"time"

	"codedterasort/internal/stats"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestFig1ExampleLoads(t *testing.T) {
	// The Section II example: K=3, Q=3, N=6.
	// Uncoded r=1: each node needs 4 of 6 intermediate values per function
	// -> load 12 of QN=18, i.e. 2/3 = 1 - 1/3.
	if got := UncodedLoad(3, 1); !almost(got, 2.0/3, 1e-12) {
		t.Fatalf("uncoded r=1 load = %v", got)
	}
	// Redundant uncoded r=2: load 6/18 = 1/3.
	if got := UncodedLoad(3, 2); !almost(got, 1.0/3, 1e-12) {
		t.Fatalf("uncoded r=2 load = %v", got)
	}
	// Coded r=2: load 3/18 = 1/6 — the 2x gain of the example.
	if got := CodedLoad(3, 2); !almost(got, 1.0/6, 1e-12) {
		t.Fatalf("coded r=2 load = %v", got)
	}
}

func TestCodedLoadIsUncodedOverR(t *testing.T) {
	// Eq. 2: L_coded(r) = L_uncoded(r)/r for every K, r (Fig 2's gap).
	for k := 2; k <= 24; k++ {
		for r := 1; r <= k; r++ {
			u, c := UncodedLoad(k, float64(r)), CodedLoad(k, float64(r))
			if !almost(c, u/float64(r), 1e-12) {
				t.Fatalf("K=%d r=%d: coded %v != uncoded/r %v", k, r, c, u/float64(r))
			}
		}
	}
}

func TestLoadCurveShape(t *testing.T) {
	// Fig 2: both curves decrease in r; coded is strictly below uncoded
	// for r >= 2; both hit 0 at r = K.
	pts := LoadCurve(10)
	if len(pts) != 10 {
		t.Fatalf("%d points", len(pts))
	}
	for i, p := range pts {
		if i > 0 {
			if p.Coded >= pts[i-1].Coded || p.Uncoded >= pts[i-1].Uncoded {
				t.Fatalf("loads not decreasing at r=%v", p.R)
			}
		}
		if p.R >= 2 && p.R < 10 && p.Coded >= p.Uncoded {
			t.Fatalf("coded not below uncoded at r=%v", p.R)
		}
	}
	last := pts[len(pts)-1]
	if last.Coded != 0 || last.Uncoded != 0 {
		t.Fatalf("loads at r=K should be 0: %+v", last)
	}
}

func TestTeraSortLoad(t *testing.T) {
	if got := TeraSortLoad(16); !almost(got, 15.0/16, 1e-12) {
		t.Fatalf("TeraSortLoad(16) = %v", got)
	}
}

func TestLoadPanicsOutOfRange(t *testing.T) {
	for _, fn := range []func(){
		func() { UncodedLoad(0, 1) },
		func() { CodedLoad(4, 0.5) },
		func() { CodedLoad(4, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestShuffledBytes12GB(t *testing.T) {
	// The evaluation's 12 GB / K=16 setting: TeraSort shuffles 15/16 of
	// 12 GB = 11.25 GB; coded r=3 shuffles (1/3)(13/16) = 3.25 GB.
	const d = 12_000_000_000
	if got := ShuffledBytes(d, 16, 1, false); got != 11_250_000_000 {
		t.Fatalf("uncoded = %d", got)
	}
	if got := ShuffledBytes(d, 16, 3, true); got != 3_250_000_000 {
		t.Fatalf("coded r=3 = %d", got)
	}
}

// table1 is the measured TeraSort breakdown of the paper's Table I.
func table1() TimeModel {
	b := stats.Seconds(0, 1.86, 2.35, 945.72, 0.85, 10.47)
	return TimeModel{
		TMap:     b[stats.StageMap],
		TShuffle: b[stats.StageShuffle],
		TReduce:  b[stats.StageReduce],
	}
}

func TestRStarFromTable1(t *testing.T) {
	// Section III-B: r* = ceil(sqrt(945.72/1.86)) = 23.
	m := table1()
	if got := m.RStar(); got != 23 {
		t.Fatalf("r* = %d, want 23", got)
	}
}

func TestOptimalSpeedupIsAboutTenX(t *testing.T) {
	// Section III-B: "we could theoretically save the total execution time
	// by approximately 10x".
	m := table1()
	got := m.OptimalSpeedup()
	if got < 9 || got < 0 || got > 11.5 {
		t.Fatalf("optimal speedup = %.2f, want ~10", got)
	}
}

func TestEq4AtRStarMatchesEq5(t *testing.T) {
	m := table1()
	rs := float64(m.RStar())
	atStar := m.Total(rs).Seconds()
	optimal := m.OptimalTotal().Seconds()
	// Integer r* is within a few percent of the continuous optimum.
	if atStar < optimal || atStar > optimal*1.05 {
		t.Fatalf("Total(r*)=%.2f vs optimal %.2f", atStar, optimal)
	}
}

func TestTotalMonotoneAroundRStar(t *testing.T) {
	m := table1()
	rs := m.RStar()
	if m.Total(float64(rs)) > m.Total(float64(rs-5)) || m.Total(float64(rs)) > m.Total(float64(rs+5)) {
		t.Fatalf("r* is not a local minimum")
	}
}

func TestSpeedupSection2Example(t *testing.T) {
	// Section II: when T_shuffle is 10x-100x of T_map + T_reduce, CMR
	// reduces execution time by approximately 1.5x-5x. The end-point
	// values match when the Map term dominates T_map + T_reduce:
	// ratio 10 -> 11/(2*sqrt(10)) ~ 1.7, ratio 100 -> 101/20 ~ 5.
	for _, tc := range []struct {
		ratio   float64
		loSpeed float64
		hiSpeed float64
	}{
		{10, 1.5, 2.0}, {100, 4.5, 5.5},
	} {
		m := TimeModel{
			TMap:     time.Second,
			TReduce:  0,
			TShuffle: time.Duration(tc.ratio * float64(time.Second)),
		}
		got := m.OptimalSpeedup()
		if got < tc.loSpeed || got > tc.hiSpeed {
			t.Fatalf("ratio %v: speedup %.2f outside [%v,%v]", tc.ratio, got, tc.loSpeed, tc.hiSpeed)
		}
	}
}

func TestTotalExactBelowEq4ForFiniteK(t *testing.T) {
	// Eq. 4 ignores the (1-r/K) factor, so the exact shuffle term is
	// smaller: TotalExact <= Total for all valid r.
	m := table1()
	for r := 1; r <= 16; r++ {
		if m.TotalExact(16, float64(r)) > m.Total(float64(r)) {
			t.Fatalf("exact above approx at r=%d", r)
		}
	}
}

func TestBaselineIsEq3(t *testing.T) {
	m := table1()
	want := m.TMap + m.TShuffle + m.TReduce
	if m.Baseline() != want {
		t.Fatalf("baseline = %v", m.Baseline())
	}
	// Table I total minus Pack/Unpack: 1.86+945.72+10.47 = 958.05 s.
	if !almost(m.Baseline().Seconds(), 958.05, 0.01) {
		t.Fatalf("baseline = %v", m.Baseline().Seconds())
	}
}

func TestRStarPanicsWithoutMapTime(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	TimeModel{TShuffle: time.Second}.RStar()
}

// TestStragglerDelta: the Eq. 4-level straggler penalty scales with the
// shuffle volume — halving with doubled r — and vanishes at factor <= 1.
func TestStragglerDelta(t *testing.T) {
	m := TimeModel{TMap: 15 * time.Second, TShuffle: 960 * time.Second, TReduce: 170 * time.Second}
	d1 := m.StragglerDelta(1, 16, 4)
	d2 := m.StragglerDelta(2, 16, 4)
	if d1 != 3*960*time.Second/16 {
		t.Fatalf("uncoded delta %v", d1)
	}
	if d2 != d1/2 {
		t.Fatalf("delta at r=2 is %v, want half of %v", d2, d1)
	}
	if m.StragglerDelta(3, 16, 1) != 0 {
		t.Fatalf("factor 1 must cost nothing")
	}
}

// Command tables prints the paper's evaluation as this repository models
// it. Every job is priced by simnet.Simulate at the paper's scale (12 GB at
// 100 Mbps); the load curve and the Eq. 4-5 analysis are the closed-form
// theory of internal/model. In order:
//
//   - Tables I, II and III (K=16 and K=20 workers), simulated beside the
//     published values, then the per-cell calibration;
//   - the Fig 2 load curve at K=-k and the Section III-B analysis of
//     Table I: r*, the Eq. 5 bound, Eq. 4 at the evaluated r;
//   - the Section V-C curves: r at K=-k, naming the best r the storage
//     cap allows; K at r=-r; clique against resolvable placement at r=-r,
//     leaving out a placement with no design at that (K, r);
//   - the straggler law: the penalty of one rank with 4x slower shuffle
//     egress, by r.
//
// Usage:
//
//	tables            # -k 16 -r 3
//	tables -k 20 -r 5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"codedterasort/internal/model"
	"codedterasort/internal/placement"
	"codedterasort/internal/simnet"
	"codedterasort/internal/stats"
)

// maxR is the storage cap on r when naming the best r (paper footnote 6:
// redundancy r stores the input r times; the paper stops at r = 5). Without
// it the degenerate r = K point, no shuffle at all, wins trivially.
const maxR = 8

// stragglerFactor is how much slower the straggler's shuffle egress runs.
const stragglerFactor = 4

func main() {
	k := flag.Int("k", 16, "worker count of the Fig 2 load curve and the r curve")
	r := flag.Int("r", 3, "redundancy of the K and placement curves")
	flag.Parse()
	if err := run(os.Stdout, *k, *r); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, k, r int) error {
	if k < 1 || r < 1 {
		return fmt.Errorf("-k %d and -r %d must be positive", k, r)
	}
	cm := simnet.Default()
	if err := printTables(w, cm); err != nil {
		return err
	}
	printTheory(w, k)
	if err := printCurves(w, k, r, cm); err != nil {
		return err
	}
	printStragglerLaw(w)
	return nil
}

// printTables prints Tables I-III and the per-cell calibration.
func printTables(w io.Writer, cm simnet.CostModel) error {
	tables, err := simnet.Tables(cm)
	if err != nil {
		return err
	}
	for _, t := range tables {
		fmt.Fprint(w, stats.RenderTable(t.Title+" (simulated)", t.Simulated))
		fmt.Fprintln(w)
		fmt.Fprint(w, stats.RenderTable(t.Title+" (paper)", t.Paper))
		fmt.Fprintln(w)
	}
	cells, err := simnet.Compare(cm)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Calibration: simulated vs published cells (Tables I-III)")
	fmt.Fprint(w, simnet.RenderComparison(cells))
	fmt.Fprintln(w)
	return nil
}

// table1 is Eq. 3-5's time model of the measured Table I breakdown.
func table1() model.TimeModel {
	t1 := simnet.PaperRows12GB[0].Times
	return model.TimeModel{TMap: t1[stats.StageMap], TShuffle: t1[stats.StageShuffle], TReduce: t1[stats.StageReduce]}
}

// printTheory prints the Fig 2 curve at K=k and the Section III-B analysis
// of Table I.
func printTheory(w io.Writer, k int) {
	fmt.Fprintf(w, "Fig 2: communication load vs computation load r (K=%d)\n", k)
	fmt.Fprintf(w, "%4s  %12s  %12s  %6s\n", "r", "uncoded L", "coded L", "gain")
	for _, p := range model.LoadCurve(k) {
		gain := 0.0
		if p.Coded > 0 {
			gain = p.Uncoded / p.Coded
		}
		fmt.Fprintf(w, "%4.0f  %12.4f  %12.4f  %5.1fx\n", p.R, p.Uncoded, p.Coded, gain)
	}
	fmt.Fprintln(w)

	m := table1()
	fmt.Fprintln(w, "Section III-B analysis of Table I (TeraSort, 12 GB, K=16):")
	fmt.Fprintf(w, "  baseline total (Eq. 3):     %8.2f s\n", m.Baseline().Seconds())
	fmt.Fprintf(w, "  optimal redundancy r*:      %8d   (ceil sqrt(Tshuffle/Tmap) = ceil sqrt(%.2f/%.2f))\n",
		m.RStar(), m.TShuffle.Seconds(), m.TMap.Seconds())
	fmt.Fprintf(w, "  optimal total (Eq. 5):      %8.2f s\n", m.OptimalTotal().Seconds())
	fmt.Fprintf(w, "  theoretical speedup bound:  %8.2fx  (the paper's ~10x)\n", m.OptimalSpeedup())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Eq. 4 totals and speedups at the evaluated redundancies (K=16):")
	for _, r := range []int{1, 3, 5} {
		fmt.Fprintf(w, "  r=%d: T=%8.2f s  speedup %.2fx (finite-K exact: %.2fx)\n",
			r, m.Total(float64(r)).Seconds(), m.Speedup(float64(r)),
			m.Baseline().Seconds()/m.TotalExact(16, float64(r)).Seconds())
	}
	fmt.Fprintln(w)
}

// printCurves prints the r curve at K=k with its best r, and the K and
// placement curves at r.
func printCurves(w io.Writer, k, r int, cm simnet.CostModel) error {
	coded := func(k, r int, kind placement.Kind) simnet.Workload {
		return simnet.Workload{Rows: simnet.Rows12GB, K: k, R: r, Coded: true, Placement: kind}
	}
	var rCurve, kCurve, pCurve []simnet.Workload
	for rr := 1; rr < k && rr <= 10; rr++ {
		rCurve = append(rCurve, coded(k, rr, placement.KindClique))
	}
	for kk := r + 1; kk <= 28; kk += 4 {
		kCurve = append(kCurve, coded(kk, r, placement.KindClique))
	}
	for kk := r * 2; kk <= 64; kk *= 2 {
		for _, kind := range []placement.Kind{placement.KindClique, placement.KindResolvable} {
			if _, err := placement.New(kind, kk, r); err == nil {
				pCurve = append(pCurve, coded(kk, r, kind))
			}
		}
	}

	pts, err := simnet.Curve(rCurve, cm)
	if err != nil {
		return err
	}
	fmt.Fprint(w, simnet.RenderCurve(fmt.Sprintf("Impact of r (K=%d, 12 GB, 100 Mbps)", k), pts))
	fmt.Fprintln(w)
	if len(pts) > 0 {
		best := pts[0]
		for _, p := range pts {
			if p.R <= maxR && p.Speedup > best.Speedup {
				best = p
			}
		}
		fmt.Fprintf(w, "Optimal redundancy at K=%d (r <= %d by storage): r=%d (speedup %.2fx)\n\n", k, maxR, best.R, best.Speedup)
	}

	if pts, err = simnet.Curve(kCurve, cm); err != nil {
		return err
	}
	fmt.Fprint(w, simnet.RenderCurve(fmt.Sprintf("Impact of K (r=%d, 12 GB, 100 Mbps)", r), pts))
	fmt.Fprintln(w)

	if pts, err = simnet.Curve(pCurve, cm); err != nil {
		return err
	}
	fmt.Fprint(w, simnet.RenderCurve(fmt.Sprintf("Clique vs resolvable placement (r=%d, 12 GB, 100 Mbps)", r), pts))
	cliqueGroups := map[int]int64{}
	var gains []string
	for _, p := range pts {
		if p.Placement == placement.KindClique {
			cliqueGroups[p.K] = p.Report.Groups
		} else if g, ok := cliqueGroups[p.K]; ok {
			gains = append(gains, fmt.Sprintf("K=%d %.1fx", p.K, float64(g)/float64(p.Report.Groups)))
		}
	}
	if len(gains) > 0 {
		fmt.Fprintf(w, "Clique/resolvable group ratio: %s\n", strings.Join(gains, ", "))
	}
	fmt.Fprintln(w)
	return nil
}

// printStragglerLaw prints model.TimeModel.StragglerDelta over Table I.
func printStragglerLaw(w io.Writer) {
	m := table1()
	fmt.Fprintf(w, "Straggler penalty of one rank with %dx slower shuffle egress (K=16, serial schedule):\n", stragglerFactor)
	fmt.Fprintf(w, "%4s  %12s %12s  %6s\n", "r", "delta (s)", "total (s)", "ratio")
	for _, r := range []int{1, 2, 3, 5} {
		d := m.StragglerDelta(float64(r), 16, stragglerFactor)
		total := m.Total(float64(r)) + d
		fmt.Fprintf(w, "%4d  %12.2f %12.2f  %5.3fx\n",
			r, d.Seconds(), total.Seconds(), total.Seconds()/m.Total(float64(r)).Seconds())
	}
	fmt.Fprintln(w, "The absolute penalty shrinks by ~r: coding's load reduction doubles as straggler resilience.")
}

package simnet

import (
	"fmt"
	"strings"

	"codedterasort/internal/placement"
	"codedterasort/internal/stats"
)

// Point is one configuration of a curve: the simulated breakdown and
// counts, the placement's file count, and the speedup over TeraSort at the
// same K and Rows.
type Point struct {
	Workload
	Times   stats.Breakdown
	Report  Report
	Files   int
	Speedup float64
}

// Curve simulates every workload beside the TeraSort baseline at its K —
// the r, K and placement trends of Section V-C. A workload at r = 1 is
// TeraSort whatever its Coded flag says (the engine runs the same code for
// both), so it is priced as the baseline, at r = 1 and 1.00x, as an
// uncoded workload is.
func Curve(ws []Workload, cm CostModel) ([]Point, error) {
	out := make([]Point, 0, len(ws))
	for _, w := range ws {
		if w.R == 1 || !w.Coded {
			w.R, w.Coded = 1, false
		}
		base, _, err := Simulate(Workload{Rows: w.Rows, K: w.K}, cm)
		if err != nil {
			return nil, err
		}
		b, rep, err := Simulate(w, cm)
		if err != nil {
			return nil, err
		}
		p := Point{Workload: w, Times: b, Report: rep, Files: w.K,
			Speedup: base.Total().Seconds() / b.Total().Seconds()}
		if w.Coded {
			strat, err := placement.New(w.Placement, w.K, w.R)
			if err != nil {
				return nil, err
			}
			p.Placement, p.Files = strat.Kind(), strat.NumFiles()
		}
		out = append(out, p)
	}
	return out, nil
}

// RenderCurve formats curve points as a text table.
func RenderCurve(title string, pts []Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%4s %4s  %-10s  %10s %10s %10s %10s  %10s %8s %8s %8s\n",
		"K", "r", "scheme", "CodeGen(s)", "Map(s)", "Shuffle(s)", "Total(s)", "Shuffle GB", "Files", "Groups", "Speedup")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 112))
	for _, p := range pts {
		scheme := "TeraSort"
		if p.Coded {
			scheme = string(p.Placement)
		}
		fmt.Fprintf(&b, "%4d %4d  %-10s  %10.2f %10.2f %10.2f %10.2f  %10.2f %8d %8d %7.2fx\n",
			p.K, p.R, scheme,
			p.Times[stats.StageCodeGen].Seconds(),
			p.Times[stats.StageMap].Seconds(),
			p.Times[stats.StageShuffle].Seconds(),
			p.Times.Total().Seconds(),
			p.Report.ShuffledBytes/1e9, p.Files, p.Report.Groups, p.Speedup)
	}
	return b.String()
}

package simnet

import (
	"fmt"
	"strings"

	"codedterasort/internal/stats"
)

// Table is one of the paper's evaluation tables: the simulated rows beside
// the published ones.
type Table struct {
	Title            string
	Simulated, Paper []stats.Row
}

// Tables simulates every published row once and lays the rows out as the
// paper does: Table I is the K=16 TeraSort row alone (the same experiment
// as Table II's first row), Tables II and III are every row at K=16 and
// K=20.
func Tables(cm CostModel) ([]Table, error) {
	sim, err := simulatePaper(cm)
	if err != nil {
		return nil, err
	}
	tables := []Table{
		{Title: "Table I: TeraSort, 12 GB, K=16 workers, 100 Mbps"},
		{Title: "Table II: 12 GB, K=16 workers, 100 Mbps"},
		{Title: "Table III: 12 GB, K=20 workers, 100 Mbps"},
	}
	for i, pr := range PaperRows12GB {
		paper := stats.Row{Label: pr.Label, Times: pr.Times, Speedup: pr.Speedup}
		t := &tables[1]
		if pr.K == 20 {
			t = &tables[2]
		} else if !pr.Coded {
			tables[0].Simulated, tables[0].Paper = []stats.Row{sim[i]}, []stats.Row{paper}
		}
		t.Simulated = append(t.Simulated, sim[i])
		t.Paper = append(t.Paper, paper)
	}
	return tables, nil
}

// simulatePaper simulates every row of PaperRows12GB in order. A coded
// row's speedup is over the TeraSort row at its K, which PaperRows12GB
// lists first.
func simulatePaper(cm CostModel) ([]stats.Row, error) {
	out := make([]stats.Row, len(PaperRows12GB))
	var base stats.Breakdown
	for i, pr := range PaperRows12GB {
		b, _, err := Simulate(Workload{Rows: Rows12GB, K: pr.K, R: pr.R, Coded: pr.Coded}, cm)
		if err != nil {
			return nil, err
		}
		out[i] = stats.Row{Label: pr.Label, Times: b}
		if pr.Coded {
			out[i].Speedup = base.Total().Seconds() / b.Total().Seconds()
		} else {
			base = b
		}
	}
	return out, nil
}

// CompareCell is one paper-vs-simulated comparison.
type CompareCell struct {
	Row      string
	Stage    string
	PaperSec float64
	SimSec   float64
}

// Ratio returns simulated / paper.
func (c CompareCell) Ratio() float64 {
	if c.PaperSec == 0 {
		return 1
	}
	return c.SimSec / c.PaperSec
}

// Compare simulates all published rows and pairs every stage cell with the
// paper's measurement — the calibration report of cmd/tables.
func Compare(cm CostModel) ([]CompareCell, error) {
	sim, err := simulatePaper(cm)
	if err != nil {
		return nil, err
	}
	var out []CompareCell
	for i, pr := range PaperRows12GB {
		b := sim[i].Times
		label := fmt.Sprintf("K=%d %s", pr.K, pr.Label)
		for s := stats.StageCodeGen; s < stats.NumStages; s++ {
			if !pr.Coded && s == stats.StageCodeGen {
				continue
			}
			out = append(out, CompareCell{
				Row:      label,
				Stage:    s.String(),
				PaperSec: pr.Times[s].Seconds(),
				SimSec:   b[s].Seconds(),
			})
		}
		out = append(out, CompareCell{
			Row: label, Stage: "Total",
			PaperSec: pr.Times.Total().Seconds(),
			SimSec:   b.Total().Seconds(),
		})
	}
	return out, nil
}

// RenderComparison formats Compare output as a text report.
func RenderComparison(cells []CompareCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s  %-14s  %10s  %10s  %7s\n", "Row", "Stage", "Paper (s)", "Sim (s)", "Ratio")
	fmt.Fprintf(&b, "%s\n", strings.Repeat("-", 78))
	for _, c := range cells {
		fmt.Fprintf(&b, "%-28s  %-14s  %10.2f  %10.2f  %6.2fx\n",
			c.Row, c.Stage, c.PaperSec, c.SimSec, c.Ratio())
	}
	return b.String()
}

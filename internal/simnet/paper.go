package simnet

import "codedterasort/internal/stats"

// The published measurements of the paper's evaluation (Section V),
// encoded verbatim so cmd/tables and the tests can report
// paper-vs-reproduced for every cell.

// PaperRow is one published table row.
type PaperRow struct {
	Label   string
	K, R    int
	Coded   bool
	Times   stats.Breakdown
	Speedup float64 // as printed in the paper; 0 for baselines
}

// PaperRows12GB is the full content of Tables I, II and III: 12 GB sorted
// at 100 Mbps. Table I is the TeraSort row of Table II (same experiment).
var PaperRows12GB = []PaperRow{
	{Label: "TeraSort", K: 16, R: 1, Coded: false,
		Times: stats.Seconds(0, 1.86, 2.35, 945.72, 0.85, 10.47)},
	{Label: "CodedTeraSort: r=3", K: 16, R: 3, Coded: true,
		Times: stats.Seconds(6.06, 6.03, 5.79, 412.22, 2.41, 13.05), Speedup: 2.16},
	{Label: "CodedTeraSort: r=5", K: 16, R: 5, Coded: true,
		Times: stats.Seconds(23.47, 10.84, 8.10, 222.83, 3.69, 14.40), Speedup: 3.39},
	{Label: "TeraSort", K: 20, R: 1, Coded: false,
		Times: stats.Seconds(0, 1.47, 2.00, 960.07, 0.62, 8.29)},
	{Label: "CodedTeraSort: r=3", K: 20, R: 3, Coded: true,
		Times: stats.Seconds(19.32, 4.68, 4.89, 453.37, 1.87, 9.73), Speedup: 1.97},
	{Label: "CodedTeraSort: r=5", K: 20, R: 5, Coded: true,
		Times: stats.Seconds(140.91, 8.59, 7.51, 269.42, 3.70, 10.97), Speedup: 2.20},
}

// Rows12GB is the paper's input size: 12 GB of 100-byte records.
const Rows12GB = 120_000_000

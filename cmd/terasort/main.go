// Command terasort runs the conventional TeraSort baseline (paper Section
// III) on an in-process cluster of K workers, optionally traffic-shaped to
// emulate the paper's 100 Mbps EC2 configuration, and prints the stage
// breakdown in the layout of the paper's Table I.
//
// Usage:
//
//	terasort -k 8 -rows 1000000
//	terasort -k 16 -rows 1200000 -rate 100 -permsg 5ms
//	terasort -k 8 -indir /data/input -membudget 67108864
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"codedterasort/cmd/internal/flags"
	"codedterasort/internal/cluster"
	"codedterasort/internal/stats"
)

func main() {
	var j flags.Job
	j.RegisterCommon(flag.CommandLine, 8)
	j.RegisterInDir(flag.CommandLine)
	j.RegisterFaults(flag.CommandLine)
	flag.Parse()

	spec := j.For(cluster.AlgTeraSort)
	start := time.Now()
	job, err := cluster.RunLocal(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "terasort:", err)
		os.Exit(1)
	}
	totalRows := j.Rows
	if j.InputDir != "" {
		// File-backed input: the part files, not -rows, define the size.
		totalRows = 0
		for _, w := range job.Workers {
			totalRows += w.OutputRows
		}
	}
	fmt.Printf("TeraSort: K=%d, %d records (%.1f MB), validated=%v, wall time %.2fs\n",
		j.K, totalRows, float64(totalRows)*100/1e6, job.Validated, time.Since(start).Seconds())
	fmt.Print(stats.RenderTable("", []stats.Row{{Label: "TeraSort", Times: job.Times}}))
	fmt.Printf("shuffle payload: %.2f MB (load %.3f of input)\n",
		float64(job.ShuffleLoadBytes)/1e6, float64(job.ShuffleLoadBytes)/(float64(totalRows)*100))
	if job.ChunksShuffled > 0 {
		fmt.Printf("pipelined shuffle: %d chunks\n", job.ChunksShuffled)
	}
	if j.MemBudget > 0 {
		fmt.Printf("external sort: %d runs spilled under a %.1f MB/worker budget\n",
			job.SpilledRuns, float64(j.MemBudget)/1e6)
	}
	if job.Attempts > 1 {
		fmt.Printf("recovery: %d attempts, recovered from %v\n", job.Attempts, job.Recovered)
	}
}

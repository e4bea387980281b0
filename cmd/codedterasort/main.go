// Command codedterasort runs CodedTeraSort (paper Section IV) on an
// in-process cluster, prints the six-stage breakdown, and when -compare is
// set also runs the TeraSort baseline on the same input and reports the
// speedup and communication-load gain.
//
// Usage:
//
//	codedterasort -k 8 -r 3 -rows 1000000
//	codedterasort -k 6 -r 2 -rows 600000 -rate 200 -compare
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"codedterasort/cmd/internal/flags"
	"codedterasort/internal/cluster"
	jobspec "codedterasort/internal/job"
	"codedterasort/internal/stats"
)

func main() {
	var j flags.Job
	j.RegisterCommon(flag.CommandLine, 8)
	j.RegisterCoded(flag.CommandLine, 3)
	j.RegisterFaults(flag.CommandLine)
	compare := flag.Bool("compare", false, "also run the TeraSort baseline and report speedup")
	flag.Parse()

	spec := j.For(cluster.AlgCoded)
	start := time.Now()
	job, err := cluster.RunLocal(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codedterasort:", err)
		os.Exit(1)
	}
	resolved, _ := spec.Resolve(jobspec.Local{}) // RunLocal accepted the spec
	strat := resolved.Strat
	fmt.Printf("CodedTeraSort: K=%d, r=%d, %s placement, %d records (%.1f MB), validated=%v, wall time %.2fs\n",
		j.K, j.R, strat.Kind(), j.Rows, float64(j.Rows)*100/1e6, job.Validated, time.Since(start).Seconds())
	if job.Attempts > 1 {
		fmt.Printf("recovery: %d attempts, recovered from %v\n", job.Attempts, job.Recovered)
	}

	rows := []stats.Row{}
	if *compare {
		baseJob, err := cluster.RunLocal(j.For(cluster.AlgTeraSort))
		if err != nil {
			fmt.Fprintln(os.Stderr, "codedterasort: baseline:", err)
			os.Exit(1)
		}
		rows = append(rows, stats.Row{Label: "TeraSort", Times: baseJob.Times})
		rows = append(rows, stats.Row{
			Label:   fmt.Sprintf("CodedTeraSort: r=%d", j.R),
			Times:   job.Times,
			Speedup: baseJob.Times.Total().Seconds() / job.Times.Total().Seconds(),
		})
		fmt.Print(stats.RenderTable("", rows))
		fmt.Printf("communication load: TeraSort %.2f MB vs Coded %.2f MB (gain %.2fx)\n",
			float64(baseJob.ShuffleLoadBytes)/1e6, float64(job.ShuffleLoadBytes)/1e6,
			float64(baseJob.ShuffleLoadBytes)/float64(job.ShuffleLoadBytes))
		return
	}
	rows = append(rows, stats.Row{Label: fmt.Sprintf("CodedTeraSort: r=%d", j.R), Times: job.Times})
	fmt.Print(stats.RenderTable("", rows))
	fmt.Printf("multicast payload: %.2f MB over %d groups (%s placement)\n",
		float64(job.ShuffleLoadBytes)/1e6, strat.NumGroups(), strat.Kind())
	if job.ChunksShuffled > 0 {
		fmt.Printf("pipelined shuffle: %d chunk packets\n", job.ChunksShuffled)
	}
	if j.MemBudget > 0 {
		fmt.Printf("external sort: %d runs spilled under a %.1f MB/worker budget\n",
			job.SpilledRuns, float64(j.MemBudget)/1e6)
	}
}

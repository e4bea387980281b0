// Command codedterasort runs CodedTeraSort (paper Section IV) on an
// in-process cluster and prints the six-stage breakdown and the reducer
// balance. -r 1 is the TeraSort baseline (paper Section III), the one way
// to run it, and the only setting that reads -indir. With -compare it also
// runs TeraSort on the same input and reports the speedup and
// communication-load gain.
//
// Usage:
//
//	codedterasort -k 8 -r 3 -rows 1000000
//	codedterasort -k 6 -r 2 -rows 600000 -rate 200 -compare
//	codedterasort -r 1 -k 8 -indir /data/input -membudget 67108864
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"codedterasort/cmd/internal/flags"
	"codedterasort/internal/cluster"
	jobspec "codedterasort/internal/job"
	"codedterasort/internal/partition"
	"codedterasort/internal/stats"
)

func main() {
	var j flags.Job
	j.RegisterCommon(flag.CommandLine, 8)
	j.RegisterCoded(flag.CommandLine, 3)
	j.RegisterInDir(flag.CommandLine)
	j.RegisterFaults(flag.CommandLine)
	compare := flag.Bool("compare", false, "also run the TeraSort baseline and report speedup (r > 1)")
	flag.Parse()

	spec := j.ToSpec()
	start := time.Now()
	job, err := cluster.RunLocal(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codedterasort:", err)
		os.Exit(1)
	}
	resolved, _ := spec.Resolve(jobspec.Local{}) // RunLocal accepted the spec
	strat := resolved.Strat
	// The part files, not -rows, size a file-backed input.
	counts := make([]int, len(job.Workers))
	var totalRows int64
	for i, w := range job.Workers {
		counts[i] = int(w.OutputRows)
		totalRows += w.OutputRows
	}
	name, label := "TeraSort", "TeraSort"
	if resolved.R > 1 {
		name, label = "CodedTeraSort", fmt.Sprintf("CodedTeraSort: r=%d", resolved.R)
	}
	fmt.Printf("%s: K=%d, r=%d, %s placement, %d records (%.1f MB), validated=%v, wall time %.2fs\n",
		name, j.K, resolved.R, strat.Kind(), totalRows, float64(totalRows)*100/1e6, job.Validated, time.Since(start).Seconds())
	fmt.Printf("reducer balance: max/mean %.2fx\n", partition.Imbalance(counts))
	if job.Attempts > 1 {
		fmt.Printf("recovery: %d attempts, recovered from %v\n", job.Attempts, job.Recovered)
	}

	rows := []stats.Row{}
	if *compare && resolved.R > 1 { // at r = 1 the job is the baseline
		base := j
		base.R, base.Placement = 1, ""
		baseJob, err := cluster.RunLocal(base.ToSpec())
		if err != nil {
			fmt.Fprintln(os.Stderr, "codedterasort: baseline:", err)
			os.Exit(1)
		}
		rows = append(rows, stats.Row{Label: "TeraSort", Times: baseJob.Times})
		rows = append(rows, stats.Row{
			Label:   label,
			Times:   job.Times,
			Speedup: baseJob.Times.Total().Seconds() / job.Times.Total().Seconds(),
		})
		fmt.Print(stats.RenderTable("", rows))
		fmt.Printf("communication load: TeraSort %.2f MB vs Coded %.2f MB (gain %.2fx)\n",
			float64(baseJob.ShuffleLoadBytes)/1e6, float64(job.ShuffleLoadBytes)/1e6,
			float64(baseJob.ShuffleLoadBytes)/float64(job.ShuffleLoadBytes))
		return
	}
	rows = append(rows, stats.Row{Label: label, Times: job.Times})
	fmt.Print(stats.RenderTable("", rows))
	fmt.Printf("shuffle payload: %.2f MB over %d groups (%s placement)\n",
		float64(job.ShuffleLoadBytes)/1e6, strat.NumGroups(), strat.Kind())
	if job.ChunksShuffled > 0 {
		fmt.Printf("pipelined shuffle: %d chunk packets\n", job.ChunksShuffled)
	}
	if j.MemBudget > 0 {
		fmt.Printf("external sort: %d runs spilled under a %.1f MB/worker budget\n",
			job.SpilledRuns, float64(j.MemBudget)/1e6)
	}
}

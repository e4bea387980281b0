// Command coordinator is the control node of the distributed deployment
// (paper Fig 8): it waits for K workers to register over TCP, distributes
// the job spec and mesh addresses, triggers the run, validates the output
// checksums, and prints the aggregated stage table.
//
// Usage:
//
//	coordinator -listen :7077 -alg codedterasort -k 4 -r 2 -rows 1000000
//	(then start 4 `worker -coord host:7077` processes)
//
// Workers stream per-stage progress, and a worker that dies aborts the job
// fast with the suspect named instead of hanging it; -deadline adds
// heartbeats and aborts on a worker that falls that far behind its
// fastest peer. A job runs once: recovery by re-execution is in-process
// only, so -max-attempts above 1 is refused before any worker registers.
// -stragglers (with -rate or -permsg) injects one egress-slowed rank to
// observe the coded-vs-uncoded degradation live.
package main

import (
	"flag"
	"fmt"
	"os"

	"codedterasort/cmd/internal/flags"
	"codedterasort/internal/cluster"
	"codedterasort/internal/stats"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7077", "address to accept worker registrations on")
	alg := flag.String("alg", "codedterasort", "algorithm: terasort or codedterasort")
	var j flags.Job
	j.RegisterCommon(flag.CommandLine, 4)
	j.RegisterCoded(flag.CommandLine, 2)
	j.RegisterFaults(flag.CommandLine)
	flag.Parse()

	spec := j.For(cluster.Algorithm(*alg))
	coord, err := cluster.NewCoordinator(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coordinator:", err)
		os.Exit(1)
	}
	defer coord.Close()
	fmt.Printf("coordinator: listening on %s, waiting for %d workers...\n", coord.Addr(), j.K)
	job, err := coord.RunJob(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coordinator:", err)
		os.Exit(1)
	}
	fmt.Printf("job complete: validated=%v, shuffle load %.2f MB, wire %.2f MB\n",
		job.Validated, float64(job.ShuffleLoadBytes)/1e6, float64(job.WireBytes)/1e6)
	if j.MemBudget > 0 {
		fmt.Printf("external sort: %d runs spilled under a %.1f MB/worker budget\n",
			job.SpilledRuns, float64(j.MemBudget)/1e6)
	}
	fmt.Print(stats.RenderTable("", []stats.Row{{Label: string(spec.Algorithm), Times: job.Times}}))
}

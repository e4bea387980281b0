// Command worker is one compute node of the distributed deployment (paper
// Fig 8): it registers with the coordinator, joins the TCP worker mesh,
// executes its share of the assigned sorting job, and reports its stage
// times and output checksum. With -v it prints each stage as it completes,
// fed by the engine runtime's per-stage hooks.
//
// Usage:
//
//	worker -coord host:7077
//	worker -coord host:7077 -procs 2 -v
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
	coord := flag.String("coord", "127.0.0.1:7077", "coordinator address")
	meshHost := flag.String("mesh-host", "127.0.0.1", "interface to bind the worker mesh listener")
	verbose := flag.Bool("v", false, "print each stage as it completes")
	var j flags.Job
	j.RegisterProcs(flag.CommandLine, "override the spec's per-worker compute goroutines on this node (0 = use the coordinator-distributed setting)")
	flag.Parse()

	opts := cluster.WorkerOptions{MeshHost: *meshHost, Parallelism: j.Parallelism}
	if *verbose {
		opts.OnStage = func(stage stats.Stage, elapsed time.Duration) {
			fmt.Printf("worker: stage %-13s done in %v\n", stage, elapsed)
		}
	}
	if err := cluster.RunWorker(*coord, opts); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	fmt.Println("worker: job complete, report delivered")
}

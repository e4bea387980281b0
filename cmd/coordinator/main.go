// Command coordinator is the control node of the distributed deployment
// (paper Fig 8): it waits for K workers to register over TCP, distributes
// the job spec and mesh addresses, triggers the run, validates the output
// checksums, and prints the aggregated stage table.
//
// Usage:
//
//	coordinator -listen :7077 -k 4 -r 2 -rows 1000000
//	(then start 4 `worker -coord host:7077` processes)
//
// -r picks the algorithm: the default job is CodedTeraSort at r = 2, and
// -r 1 runs TeraSort. With -indir (r = 1) each worker reads its own part
// file of a teragen -disk directory instead of generating its input.
//
// The job runs under the same supervisor as an in-process run. Workers
// stream per-stage progress, and a worker that dies aborts the attempt
// instead of hanging it; -deadline adds heartbeats and aborts on a worker
// that falls that far behind its fastest peer. The job then re-runs on the
// next K workers to register, up to -max-attempts (default 3 with
// -deadline, else 1), or fails naming the suspects. Workers are one-shot,
// so recovery needs them restarted (a shell loop around `worker` will do);
// with -deadline a retry waits that long for them. -stragglers (with -rate
// or -permsg) slows one rank's egress to observe the coded-vs-uncoded
// degradation live.
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
	var j flags.Job
	j.RegisterCommon(flag.CommandLine, 4)
	j.RegisterCoded(flag.CommandLine, 2)
	j.RegisterFaults(flag.CommandLine)
	j.RegisterInDir(flag.CommandLine)
	flag.Parse()

	spec := j.ToSpec()
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
	if job.Attempts > 1 {
		fmt.Printf("recovery: %d attempts, recovered from %v\n", job.Attempts, job.Recovered)
	}
	if j.MemBudget > 0 {
		fmt.Printf("external sort: %d runs spilled under a %.1f MB/worker budget\n",
			job.SpilledRuns, float64(j.MemBudget)/1e6)
	}
	fmt.Print(stats.RenderTable("", []stats.Row{{Label: string(spec.Algorithm), Times: job.Times}}))
}

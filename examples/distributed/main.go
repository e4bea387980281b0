// Command distributed runs the paper's Fig 8 deployment end to end in one command:
// a coordinator and K worker processes-worth of protocol over real TCP
// sockets on loopback. Each worker registers, receives its rank and the
// job spec, joins the worker mesh, sorts, and reports; the coordinator
// validates the combined output checksums and prints the stage table.
//
//	go run ./examples/distributed
//	go run ./examples/distributed -alg terasort -k 6 -rows 300000
package main

import (
	"flag"
	"fmt"
	"log"
	"sync"

	"codedterasort/internal/cluster"
	"codedterasort/internal/stats"
)

func main() {
	alg := flag.String("alg", "codedterasort", "terasort or codedterasort")
	k := flag.Int("k", 4, "workers")
	r := flag.Int("r", 2, "redundancy (codedterasort)")
	rows := flag.Int64("rows", 200_000, "records")
	flag.Parse()

	spec := cluster.Spec{
		Algorithm: cluster.Algorithm(*alg), K: *k, R: *r, Rows: *rows, Seed: 2017,
	}
	if spec.Algorithm == cluster.AlgTeraSort {
		spec.R = 0
	}

	coord, err := cluster.NewCoordinator("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	fmt.Printf("coordinator listening on %s; launching %d workers\n", coord.Addr(), *k)

	var wg sync.WaitGroup
	for i := 0; i < *k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := cluster.RunWorker(coord.Addr(), cluster.WorkerOptions{}); err != nil {
				log.Fatalf("worker %d: %v", i, err)
			}
		}(i)
	}
	job, err := coord.RunJob(spec)
	if err != nil {
		log.Fatal(err)
	}
	wg.Wait()

	fmt.Printf("\njob validated=%v; %.1f MB sorted; shuffle load %.2f MB; wire traffic %.2f MB\n\n",
		job.Validated, float64(*rows)*100/1e6,
		float64(job.ShuffleLoadBytes)/1e6, float64(job.WireBytes)/1e6)
	fmt.Print(stats.RenderTable("Cluster stage breakdown (max over workers)",
		[]stats.Row{{Label: string(spec.Algorithm), Times: job.Times}}))
	fmt.Println("\nPer-worker reports:")
	for _, w := range job.Workers {
		fmt.Printf("  rank %d: %8d records reduced, %6.2f MB payload sent, total %.2fs\n",
			w.Rank, w.OutputRows, float64(w.SentBytes)/1e6, w.Times.Total().Seconds())
	}
}

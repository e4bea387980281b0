// Command cmr_fig1 reproduces the worked example of the paper's Fig 1 and Section
// II: distributed computing of Q=3 functions from N=6 inputs on K=3 nodes.
//
//   - Uncoded, r=1 (Fig 1a): each node maps 2 files and needs 4 remote
//     intermediate values -> communication load 12.
//   - Uncoded, r=2: each file mapped twice; each node still needs 2 remote
//     values -> load 6.
//   - Coded, r=2 (Fig 1b): each node XORs two values and multicasts one
//     packet to both other nodes -> load 3, a 2x gain over uncoded r=2.
//
// The example first recomputes those counts from the closed-form model,
// then demonstrates them live: a real CodedTeraSort run with K=3, r=2
// multicasts exactly 3 coded packets.
//
//	go run ./examples/cmr_fig1
package main

import (
	"fmt"
	"log"

	"codedterasort/internal/cluster"
	"codedterasort/internal/model"
)

func main() {
	const (
		k = 3 // nodes
		q = 3 // output functions (one reduced per node)
		n = 6 // input files
	)
	fmt.Println("Fig 1 example: Q=3 functions, N=6 files, K=3 nodes")
	fmt.Println()

	// Normalized loads from the theory (Eq. 2), denormalized by Q*N = 18
	// intermediate values.
	qn := float64(q * n)
	uncoded1 := model.UncodedLoad(k, 1) * qn
	uncoded2 := model.UncodedLoad(k, 2) * qn
	coded2 := model.CodedLoad(k, 2) * qn
	fmt.Printf("  uncoded r=1 (Fig 1a): %2.0f intermediate values shuffled\n", uncoded1)
	fmt.Printf("  uncoded r=2:          %2.0f intermediate values shuffled\n", uncoded2)
	fmt.Printf("  coded   r=2 (Fig 1b): %2.0f coded packets multicast (2x gain)\n", coded2)
	fmt.Println()

	// Live demonstration: CodedTeraSort with K=3, r=2 forms exactly
	// C(3,3) = 1 multicast group of all three nodes, in which each node
	// multicasts exactly one coded packet — the 3 transmissions of Fig 1b.
	job, err := cluster.RunLocal(cluster.Spec{
		Algorithm: cluster.AlgCoded, K: k, R: 2, Rows: 60_000, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	var ops int64
	for _, w := range job.Workers {
		ops += w.SentOps
	}
	fmt.Printf("Live run (60k records): %d coded packets multicast, %.2f MB total\n",
		ops, float64(job.ShuffleLoadBytes)/1e6)
	if ops != 3 {
		log.Fatalf("expected exactly 3 coded packets (Fig 1b), got %d", ops)
	}

	tera, err := cluster.RunLocal(cluster.Spec{
		Algorithm: cluster.AlgTeraSort, K: k, Rows: 60_000, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TeraSort on the same input: %d unicast messages, %.2f MB total\n",
		k*(k-1), float64(tera.ShuffleLoadBytes)/1e6)
	fmt.Printf("Measured load gain: %.2fx (theory for K=3, r=2 vs r=1: %.1fx)\n",
		float64(tera.ShuffleLoadBytes)/float64(job.ShuffleLoadBytes),
		model.UncodedLoad(k, 1)/model.CodedLoad(k, 2))
}

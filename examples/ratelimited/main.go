// Command ratelimited reproduces the paper's experimental condition at laptop
// scale: every worker's egress is traffic-shaped (the role `tc` plays on
// the paper's EC2 instances, Section V-B), which makes the shuffle
// bandwidth-bound — and then CodedTeraSort beats TeraSort in real wall
// -clock time, not just in bytes.
//
//	go run ./examples/ratelimited
//	go run ./examples/ratelimited -rate 200 -k 6 -r 3 -rows 120000
package main

import (
	"flag"
	"fmt"
	"log"

	"codedterasort/internal/cluster"
	"codedterasort/internal/stats"
)

func main() {
	k := flag.Int("k", 6, "workers")
	r := flag.Int("r", 3, "redundancy")
	rows := flag.Int64("rows", 240_000, "records (100 bytes each)")
	rate := flag.Float64("rate", 200, "per-node egress cap in Mbps")
	flag.Parse()

	fmt.Printf("Sorting %.0f MB on %d workers, every egress capped at %.0f Mbps\n\n",
		float64(*rows)*100/1e6, *k, *rate)

	tera, err := cluster.RunLocal(cluster.Spec{
		Algorithm: cluster.AlgTeraSort, K: *k, Rows: *rows, Seed: 7, RateMbps: *rate,
	})
	if err != nil {
		log.Fatal(err)
	}
	// The multicast relays each coded packet down a chain of its group:
	// the root's egress carries it once and every relay forwards it on its
	// own link, so under the serial schedule a shuffle costs about one
	// packet time per group, and the r-fold smaller load shows in the
	// Shuffle wall time, not only in the bytes.
	coded, err := cluster.RunLocal(cluster.Spec{
		Algorithm: cluster.AlgCoded, K: *k, R: *r, Rows: *rows, Seed: 7, RateMbps: *rate,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(stats.RenderTable("Wall-clock stage breakdown under traffic shaping", []stats.Row{
		{Label: "TeraSort", Times: tera.Times},
		{Label: fmt.Sprintf("Coded r=%d", *r), Times: coded.Times,
			Speedup: tera.Times.Total().Seconds() / coded.Times.Total().Seconds()},
	}))
	fmt.Println()
	fmt.Printf("Shuffle wall time:  TeraSort %.2fs, Coded %.2fs\n",
		tera.Times[stats.StageShuffle].Seconds(), coded.Times[stats.StageShuffle].Seconds())
	fmt.Printf("Shuffle payload:    TeraSort %.2f MB vs Coded %.2f MB (%.2fx less)\n",
		float64(tera.ShuffleLoadBytes)/1e6, float64(coded.ShuffleLoadBytes)/1e6,
		float64(tera.ShuffleLoadBytes)/float64(coded.ShuffleLoadBytes))
	fmt.Printf("Wire traffic:       TeraSort %.2f MB vs Coded %.2f MB (r copies of each packet)\n",
		float64(tera.WireBytes)/1e6, float64(coded.WireBytes)/1e6)
	fmt.Printf("All outputs validated: %v, %v\n", tera.Validated, coded.Validated)
}

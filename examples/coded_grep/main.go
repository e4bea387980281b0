// Command coded_grep demonstrates the paper's "Beyond Sorting Algorithms" future
// direction (Section VI): the same structured redundancy and coded
// multicast shuffling applied to Grep, another application the paper names
// as shuffle-limited. The grep kernel of the MapReduce framework scans
// each worker's files for records whose value contains a pattern; only the
// (coded) matches are shuffled, and reducers output the sorted matches of
// their key range.
//
//	go run ./examples/coded_grep
package main

import (
	"bytes"
	"fmt"
	"log"

	"codedterasort/internal/kv"
	"codedterasort/internal/mapreduce"
)

func main() {
	const (
		k    = 6
		r    = 3
		rows = 300_000
		seed = 21
	)
	pattern := "QQ" // ~0.13% of uniform 26-letter filler values
	kern := mapreduce.Grep(pattern)

	fmt.Printf("Coded Grep: pattern %q over %d records on %d workers (r=%d)\n\n",
		pattern, rows, k, r)

	// One kernel, both engines: the replication factor alone decides
	// whether the job compiles onto the uncoded or the coded graph. The
	// supervised runner owns the workers and their errors — no goroutine
	// plumbing in the application.
	run := func(rr int) (int, int64) {
		rep, err := mapreduce.RunLocal(kern.Job(k, rr, rows, seed))
		if err != nil {
			log.Fatal(err)
		}
		return int(mapreduce.ReducedRows(rep)), rep.ShuffleLoadBytes
	}
	plainMatches, plainLoad := run(1)
	codedMatches, codedLoad := run(r)

	// Reference scan.
	data := kv.NewGenerator(seed, kv.DistUniform).Generate(0, rows)
	want := 0
	for i := 0; i < data.Len(); i++ {
		if bytes.Contains(data.Record(i)[kv.KeySize:], []byte(pattern)) {
			want++
		}
	}
	fmt.Printf("sequential scan:   %6d matches\n", want)
	fmt.Printf("uncoded grep:      %6d matches, %8.1f KB shuffled\n", plainMatches, float64(plainLoad)/1e3)
	fmt.Printf("coded grep (r=%d):  %6d matches, %8.1f KB shuffled (%.2fx less)\n",
		r, codedMatches, float64(codedLoad)/1e3, float64(plainLoad)/float64(codedLoad))
	if plainMatches != want || codedMatches != want {
		log.Fatalf("match counts disagree: scan %d, uncoded %d, coded %d", want, plainMatches, codedMatches)
	}
	fmt.Println("\nAll three agree; the coded shuffle moved the matches with the same")
	fmt.Println("multicast coding the sorter uses, at ~1/r of the uncoded load.")
}

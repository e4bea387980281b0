// Command codedmr runs a registered MapReduce kernel on the in-process
// coded-MapReduce framework — the paper's "Beyond Sorting Algorithms"
// direction (Section VI) as a command. The kernel's map/reduce pair rides
// the same engines, knobs and recovery as the sorters: -r picks coded
// (r >= 2) or uncoded execution, and -compare runs both and reports the
// communication-load gain alongside a byte-equality check of the outputs.
//
// Usage:
//
//	codedmr -kernel wordcount -k 6 -r 3 -rows 200000
//	codedmr -kernel grep -pattern QQ -rows 300000 -compare
//	codedmr -list
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"codedterasort/cmd/internal/flags"
	"codedterasort/internal/cluster"
	"codedterasort/internal/job"
	"codedterasort/internal/mapreduce"
	"codedterasort/internal/stats"
)

// options are codedmr's parsed flags.
type options struct {
	j       flags.Job
	kernel  string
	pattern string
	compare bool
	list    bool
	show    int
}

// register binds codedmr's flag surface onto fs.
func register(fs *flag.FlagSet) *options {
	o := &options{}
	o.j.RegisterCommon(fs, 6)
	o.j.RegisterCoded(fs, 3)
	fs.StringVar(&o.kernel, "kernel", "wordcount", "registered kernel to run (see -list)")
	fs.StringVar(&o.pattern, "pattern", "QQ", "pattern the grep kernel selects on")
	fs.BoolVar(&o.compare, "compare", false, "also run the uncoded baseline and report the load gain")
	fs.BoolVar(&o.list, "list", false, "list the registered kernels and exit")
	fs.IntVar(&o.show, "show", 0, "print the first N reduced records of each rank")
	o.j.RegisterFaults(fs)
	return o
}

// job builds the selected kernel's job: the kernel's functions and corpus
// under the flags' spec. An empty alg leaves -r to pick coded (r >= 2) or
// uncoded execution; job.AlgTeraSort is the -compare baseline.
func (o *options) job(alg job.Algorithm) (mapreduce.Kernel, mapreduce.Job, error) {
	kern, ok := mapreduce.Lookup(o.kernel)
	if !ok {
		return kern, mapreduce.Job{}, fmt.Errorf("unknown kernel %q (try -list)", o.kernel)
	}
	if kern.Name == "grep" {
		kern = mapreduce.Grep(o.pattern)
	}
	spec := o.j.For(alg)
	mr := kern.Job(spec.K, spec.R, spec.Rows, spec.Seed)
	mr.Spec = spec
	return kern, mr, nil
}

func main() {
	o := register(flag.CommandLine)
	flag.Parse()
	j := &o.j

	if o.list {
		for _, k := range mapreduce.Kernels() {
			fmt.Printf("%-14s %s\n", k.Name, k.Doc)
		}
		return
	}
	kern, mr, err := o.job("")
	if err != nil {
		fmt.Fprintln(os.Stderr, "codedmr:", err)
		os.Exit(1)
	}
	start := time.Now()
	rep, err := mapreduce.RunLocal(mr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codedmr:", err)
		os.Exit(1)
	}
	engine := "uncoded"
	if j.R >= 2 {
		engine = fmt.Sprintf("coded r=%d", j.R)
	}
	fmt.Printf("%s (%s): K=%d, %d input records -> %d reduced records, wall time %.2fs\n",
		kern.Name, engine, j.K, j.Rows, mapreduce.ReducedRows(rep), time.Since(start).Seconds())
	if rep.Attempts > 1 {
		fmt.Printf("recovery: %d attempts, recovered from %v\n", rep.Attempts, rep.Recovered)
	}

	if o.compare {
		_, base, _ := o.job(job.AlgTeraSort)
		baseRep, err := mapreduce.RunLocal(base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "codedmr: baseline:", err)
			os.Exit(1)
		}
		rows := []stats.Row{
			{Label: "uncoded", Times: baseRep.Times},
			{Label: fmt.Sprintf("coded: r=%d", j.R), Times: rep.Times,
				Speedup: baseRep.Times.Total().Seconds() / rep.Times.Total().Seconds()},
		}
		fmt.Print(stats.RenderTable("", rows))
		fmt.Printf("communication load: uncoded %.2f MB vs coded %.2f MB (gain %.2fx)\n",
			float64(baseRep.ShuffleLoadBytes)/1e6, float64(rep.ShuffleLoadBytes)/1e6,
			float64(baseRep.ShuffleLoadBytes)/float64(rep.ShuffleLoadBytes))
		if !sameOutput(rep, baseRep) {
			fmt.Fprintln(os.Stderr, "codedmr: coded and uncoded outputs differ")
			os.Exit(1)
		}
		fmt.Println("coded and uncoded reduced outputs are byte-identical")
	} else {
		fmt.Print(stats.RenderTable("", []stats.Row{{Label: kern.Name, Times: rep.Times}}))
		fmt.Printf("shuffle payload: %.2f MB\n", float64(rep.ShuffleLoadBytes)/1e6)
	}
	if rep.ChunksShuffled > 0 {
		fmt.Printf("pipelined shuffle: %d chunk packets\n", rep.ChunksShuffled)
	}
	if j.MemBudget > 0 {
		fmt.Printf("external sort: %d runs spilled under a %.1f MB/worker budget\n",
			rep.SpilledRuns, float64(j.MemBudget)/1e6)
	}
	if o.show > 0 {
		printSample(rep, o.show)
	}
}

// sameOutput reports whether two runs reduced to identical bytes per rank.
func sameOutput(a, b *cluster.JobReport) bool {
	if len(a.Workers) != len(b.Workers) {
		return false
	}
	for rank := range a.Workers {
		if !bytes.Equal(a.Workers[rank].Output.Bytes(), b.Workers[rank].Output.Bytes()) {
			return false
		}
	}
	return true
}

// printSample prints the head of each rank's reduced output.
func printSample(rep *cluster.JobReport, n int) {
	for rank, w := range rep.Workers {
		out := w.Output
		fmt.Printf("rank %d (%d records):\n", rank, out.Len())
		for i := 0; i < out.Len() && i < n; i++ {
			fmt.Printf("  %-10s -> %s\n",
				mapreduce.TrimPad(out.Key(i)), mapreduce.TrimPad(out.Value(i)))
		}
	}
}

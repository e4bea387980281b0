// Command bench is the repository's benchmark: seven fixed workloads over
// the sorting engines, the TCP cluster runtime and the sortd service, each
// checked against an engine-free oracle, reporting the end-to-end metrics
// setup_s, job_s and sort_s, a ladder of per-layer probes, and
// a traced run. See README.md beside this file.
//
// It runs in one of four ways:
//
//	bench -out out/result.json [-seed N] [-rows N] [-workload NAME]
//	    the full run: re-executes itself once per workload (so ru_maxrss
//	    is per workload), prints every metric by name, writes result.json
//	    and one Chrome trace per workload
//	bench --workload NAME --seed N --seconds S --trace 0|1
//	    one workload in this process for S seconds; the last line of
//	    standard output is the result as one JSON object (BENCHMARK.json's
//	    command)
//	bench -compare parent.json change.json
//	    verdict per (end-to-end metric, workload) against the bounds
//	bench -selfcheck
//	    the full run twice, compared with itself
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// processStart anchors setup_s and every span's clock.
var processStart = time.Now()

// fullSetups is how often a process repeats set-up to report its median.
const fullSetups = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out       = fs.String("out", "", "full run: write the result JSON here")
		outDir    = fs.String("outdir", "out", "directory for traces, per-workload results and spill files")
		name      = fs.String("workload", "", "run only this workload")
		seed      = fs.Uint64("seed", 11, "input seed (flows to Spec.Seed; the oracle regenerates the same rows)")
		rows      = fs.Int64("rows", 1_000_000, "input rows per job (100 B each)")
		iters     = fs.Int("iters", 0, "timed iterations per workload (0 = the workload's own count)")
		seconds   = fs.Float64("seconds", 0, "measure one workload in this process for this long")
		traceFlag = fs.Int("trace", 0, "with -seconds: 0 = end-to-end metrics, 1 = traced run and per-layer metrics")
		compare   = fs.Bool("compare", false, "compare two result files: bench -compare parent.json change.json")
		selfcheck = fs.Bool("selfcheck", false, "run the full set twice and compare the two results")
		child     = fs.Bool("child", false, "internal: measure -workload in this process by iteration count")
		ladder    = fs.Bool("ladder", true, "internal: run the ladder probes in the traced run")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Load sizing: one process, at most four cores; the K=4 ranks are
	// goroutines of the system under test.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	c := config{seed: *seed, rows: *rows, outDir: *outDir}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare parent.json change.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *selfcheck:
		return selfCheck(c, *name, *iters, stdout, stderr)
	case *seconds > 0 || *child:
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		p := plan{setups: fullSetups, trace: *traceFlag != 0, ladder: *ladder}
		if *child {
			// The full run's child: the workload's iteration count, then
			// one traced iteration.
			p.untraced = budget{samples: w.Iters}
			if *iters > 0 {
				p.untraced.samples = *iters
			}
			p.trace, p.traced = true, budget{samples: 1}
		} else if p.trace {
			p.untraced, p.traced = budget{seconds: *seconds / 2}, budget{seconds: *seconds / 2}
		} else {
			p.untraced = budget{seconds: *seconds}
		}
		return measureOne(w, c, p, stdout, stderr)
	default:
		if *out == "" {
			*out = filepath.Join(*outDir, "result.json")
		}
		res, err := fullRun(c, *name, *iters, stdout, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "\nresult written to %s\n", *out)
		if res.failed() {
			return 1
		}
		return 0
	}
}

// contractLine is the one JSON object a -seconds run prints last.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// measureOne measures one workload in this process, writes its result and
// trace files, prints its metrics, and ends with the contract line.
func measureOne(w workload, c config, p plan, stdout, stderr io.Writer) int {
	res, spans, err := runWorkload(w, c, p)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := writeJSON(filepath.Join(c.outDir, "workload-"+w.Name+".json"), res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line := contractLine{
		Correct:   res.Failed == 0 && len(res.CountDrift) == 0,
		Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]metricValue{},
	}
	if p.trace {
		if err := writeChromeTrace(filepath.Join(c.outDir, "trace-"+w.Name+".json"), spans); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		line.Metrics = res.PerLayer
	} else {
		for _, d := range endToEnd {
			line.Metrics[d.Name] = metricValue{Value: res.EndToEnd[d.Name].Median, Unit: d.Unit}
		}
	}
	printWorkload(stdout, res)
	for _, e := range res.Errors {
		fmt.Fprintln(stderr, "bench: failed sample:", e)
	}
	for _, d := range res.CountDrift {
		fmt.Fprintln(stderr, "bench: counts differ between iterations:", d)
	}
	p2, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(p2))
	if !line.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	p, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(p, '\n'), 0o644)
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// verdict is the outcome of comparing one (end-to-end metric, workload)
// pair between a parent result and a change result.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judgePair compares two summaries of a lower-is-better metric against its
// bound. The ratio's base is the parent's median. A side whose median is
// itself uncertain by more than the bound (its quartile spread, scaled from
// the samples to their median) cannot resolve a difference of that size, so
// the pair is unresolved rather than unchanged. A summary of fewer than five
// samples (setup_s has three a run) is judged on its median alone, as the
// driver judges setup_s.
func judgePair(parent, change summary, bound float64) (ratio float64, v verdict) {
	if parent.Median > 0 {
		ratio = change.Median / parent.Median
	}
	switch {
	case parent.medianSpread() > bound || change.medianSpread() > bound:
		v = unresolved
	case ratio > 1+bound:
		v = regressed
	case ratio < 1-bound:
		v = improved
	default:
		v = unchanged
	}
	return ratio, v
}

// comparison is the outcome of a whole compare.
type comparison struct {
	verdicts map[verdict]int
	// mismatches counts exact counts that differ, moreFailed workloads
	// whose failed/attempted share rose, leaks workloads that left
	// goroutines or spill files behind on either side.
	mismatches, moreFailed, leaks int
}

// compareResults prints one row per (end-to-end metric, workload) and
// checks every exact count, the failure share and the leak count.
func compareResults(parent, change *suiteResult, out io.Writer) comparison {
	cmp := comparison{verdicts: map[verdict]int{}}
	fmt.Fprintf(out, "%-18s %-12s %28s %28s %18s  %s\n", "workload", "metric",
		"parent median [q1, q3]", "change median [q1, q3]", "change/parent", "verdict")
	for _, cw := range change.Workloads {
		pw := parent.workload(cw.Name)
		if pw == nil {
			fmt.Fprintf(out, "%-18s only in the change result\n", cw.Name)
			continue
		}
		for _, d := range endToEnd {
			p, c := pw.EndToEnd[d.Name], cw.EndToEnd[d.Name]
			ratio, v := judgePair(p, c, d.Bound)
			cmp.verdicts[v]++
			fmt.Fprintf(out, "%-18s %-12s %10.4f [%7.4f, %7.4f] %10.4f [%7.4f, %7.4f] %10.4f (±%.2f)  %s\n",
				cw.Name, d.Name, p.Median, p.Q1, p.Q3, c.Median, c.Q1, c.Q3, ratio, d.Bound, v)
		}
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			p, pok := pw.PerLayer[d.Name]
			c, cok := cw.PerLayer[d.Name]
			if pok && cok && p.Value != c.Value {
				cmp.mismatches++
				fmt.Fprintf(out, "%-18s %-32s = count differs: parent %.17g, change %.17g\n", cw.Name, d.Name, p.Value, c.Value)
			}
		}
		// failed/attempted compared as cross products, to stay in integers.
		if cw.Failed*pw.Attempted > pw.Failed*cw.Attempted {
			cmp.moreFailed++
			fmt.Fprintf(out, "%-18s failed/attempted rose: parent %d/%d, change %d/%d\n",
				cw.Name, pw.Failed, pw.Attempted, cw.Failed, cw.Attempted)
		}
		for side, w := range map[string]*workloadResult{"parent": pw, "change": cw} {
			if n := w.PerLayer["cluster.leaks"].Value; n > 0 {
				cmp.leaks++
				fmt.Fprintf(out, "%-18s cluster.leaks = %.0f in the %s result\n", cw.Name, n, side)
			}
		}
	}
	fmt.Fprintf(out, "%d improved, %d unchanged, %d regressed, %d unresolved; %d exact counts differ; %d workloads fail more\n",
		cmp.verdicts[improved], cmp.verdicts[unchanged], cmp.verdicts[regressed], cmp.verdicts[unresolved],
		cmp.mismatches, cmp.moreFailed)
	return cmp
}

func readResult(path string) (*suiteResult, error) {
	p, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &suiteResult{}
	if err := json.Unmarshal(p, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// compareFiles is bench -compare: non-zero on a regression, a differing
// exact count, or a higher failure share.
func compareFiles(parentPath, changePath string, stdout, stderr io.Writer) int {
	parent, err := readResult(parentPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	change, err := readResult(changePath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cmp := compareResults(parent, change, stdout)
	if cmp.verdicts[regressed] > 0 || cmp.mismatches > 0 || cmp.moreFailed > 0 {
		return 1
	}
	return 0
}

// selfCheck is bench -selfcheck: the full run twice, back to back, compared
// with itself. Two runs of the same code must agree within the benchmark's
// own bounds, so anything but "unchanged" everywhere fails, as does a
// differing exact count, a failed sample, or an iteration that left
// goroutines or spill files behind.
func selfCheck(c config, only string, iters int, stdout, stderr io.Writer) int {
	var runs [2]*suiteResult
	for i := range runs {
		fmt.Fprintf(stdout, "\n#### selfcheck run %d of 2\n", i+1)
		var err error
		if runs[i], err = fullRun(c, only, iters, stdout, stderr); err == nil {
			err = writeJSON(filepath.Join(c.outDir, fmt.Sprintf("selfcheck-%d.json", i+1)), runs[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "\n#### selfcheck: run 2 against run 1\n")
	cmp := compareResults(runs[0], runs[1], stdout)
	ok := cmp.verdicts[improved]+cmp.verdicts[regressed]+cmp.verdicts[unresolved] == 0 &&
		cmp.mismatches == 0 && cmp.moreFailed == 0 && cmp.leaks == 0 &&
		!runs[0].failed() && !runs[1].failed()
	if !ok {
		fmt.Fprintln(stdout, "selfcheck: FAILED")
		return 1
	}
	fmt.Fprintln(stdout, "selfcheck: ok")
	return 0
}

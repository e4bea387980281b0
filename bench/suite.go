package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"codedterasort/internal/kv"
)

// hostInfo says where the numbers were taken. With more ranks than cores
// wall-clock scaling is not measurable, so the block says so and nothing
// in the benchmark reports a speed-up against process count.
type hostInfo struct {
	GoVersion      string `json:"go_version"`
	CPUModel       string `json:"cpu_model"`
	NProc          int    `json:"nproc"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	Oversubscribed bool   `json:"oversubscribed"`
}

func host() hostInfo {
	h := hostInfo{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	h.Oversubscribed = ranks > h.GOMAXPROCS
	if p, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(p), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// rung is one line of the layer ladder, in MB/s.
type rung struct {
	Name   string  `json:"name"`
	MBPerS float64 `json:"mb_per_s"`
}

// capSpeedup is the paper's headline number on this host: measured from
// the *_cap pair, predicted by simnet from the ladder's rates, beside the
// shuffle bytes measured and predicted by the tradeoff curve.
type capSpeedup struct {
	Measured            float64 `json:"measured"`
	Predicted           float64 `json:"predicted"`
	UncodedShuffleBytes float64 `json:"uncoded_shuffle_bytes"`
	UncodedPredBytes    float64 `json:"uncoded_shuffle_bytes_pred"`
	CodedShuffleBytes   float64 `json:"coded_shuffle_bytes"`
	CodedPredBytes      float64 `json:"coded_shuffle_bytes_pred"`
}

// suiteResult is result.json: one full run.
type suiteResult struct {
	Seed      uint64             `json:"seed"`
	Rows      int64              `json:"rows"`
	Host      hostInfo           `json:"host"`
	Bounds    map[string]float64 `json:"bounds"`
	Workloads []*workloadResult  `json:"workloads"`
	Ladder    []rung             `json:"ladder,omitempty"`
	Cap       *capSpeedup        `json:"cap_speedup,omitempty"`
	WallS     float64            `json:"wall_s"`
}

func (r *suiteResult) workload(name string) *workloadResult {
	for _, w := range r.Workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// failed reports whether any sample of any workload failed.
func (r *suiteResult) failed() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 || len(w.CountDrift) > 0 {
			return true
		}
	}
	return false
}

// fullRun measures every workload (or only the named one), each in its own
// child process so that peak_rss_mb is per workload, and prints the lot.
// The ladder probes run once, in the first child.
func fullRun(c config, only string, iters int, stdout, stderr io.Writer) (*suiteResult, error) {
	start := time.Now()
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	res := &suiteResult{Seed: c.seed, Rows: c.rows, Host: host(), Bounds: map[string]float64{}}
	for _, d := range endToEnd {
		res.Bounds[d.Name] = d.Bound
	}
	if _, ok := findWorkload(only); only != "" && !ok {
		return nil, fmt.Errorf("unknown workload %q", only)
	}
	for _, w := range workloads {
		if only != "" && w.Name != only {
			continue
		}
		cmd := exec.Command(self, "-child", "-workload", w.Name,
			"-seed", strconv.FormatUint(c.seed, 10), "-rows", strconv.FormatInt(c.rows, 10),
			"-iters", strconv.Itoa(iters), "-outdir", c.outDir,
			"-ladder="+strconv.FormatBool(len(res.Workloads) == 0))
		cmd.Stderr = stderr
		// The child prints for a reader who runs it alone; here its result
		// file is printed instead, so a failed child still has a record.
		cerr := cmd.Run()
		p, err := os.ReadFile(filepath.Join(c.outDir, "workload-"+w.Name+".json"))
		if err != nil {
			return nil, fmt.Errorf("%s: child left no result (%v): %w", w.Name, cerr, err)
		}
		wr := &workloadResult{}
		if err := json.Unmarshal(p, wr); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		if cerr != nil && wr.Failed == 0 && len(wr.CountDrift) == 0 {
			return nil, fmt.Errorf("%s: child failed: %w", w.Name, cerr)
		}
		res.Workloads = append(res.Workloads, wr)
		printWorkload(stdout, wr)
	}
	res.summarize()
	res.WallS = time.Since(start).Seconds()
	printSummary(stdout, res)
	return res, nil
}

// summarize derives the cross-workload numbers: the ladder and cap_speedup.
func (r *suiteResult) summarize() {
	var probed *workloadResult
	for _, w := range r.Workloads {
		if w.Probed {
			probed = w
			break
		}
	}
	if probed != nil {
		for _, name := range []string{
			"kv.sort_mb_s", "partition.split_mb_s", "codec.pack_mb_s", "codec.encode_mb_s",
			"codec.decode_mb_s", "transport.memnet_mb_s", "transport.tcpnet_mb_s",
		} {
			r.Ladder = append(r.Ladder, rung{Name: name, MBPerS: probed.PerLayer[name].Value})
		}
	}
	bytes := float64(r.Rows * kv.RecordSize)
	if w := r.workload("uncoded_mem"); w != nil {
		r.Ladder = append(r.Ladder,
			rung{Name: "sort_s rate (uncoded_mem)", MBPerS: bytes / 1e6 / w.EndToEnd["sort_s"].Median},
			rung{Name: "job_s rate (uncoded_mem)", MBPerS: bytes / 1e6 / w.EndToEnd["job_s"].Median})
	}
	if w := r.workload("sortd_mix"); w != nil {
		// A cycle sorts four jobs of rows/5.
		cycle := float64(4 * (r.Rows / 5) * kv.RecordSize)
		r.Ladder = append(r.Ladder, rung{Name: "sortd cycle rate (sortd_mix)", MBPerS: cycle / 1e6 / w.EndToEnd["job_s"].Median})
	}
	u, c := r.workload("uncoded_cap"), r.workload("coded_cap")
	if u != nil && c != nil {
		r.Cap = &capSpeedup{
			Measured:            u.EndToEnd["sort_s"].Median / c.EndToEnd["sort_s"].Median,
			UncodedShuffleBytes: u.PerLayer["cluster.shuffle_bytes"].Value,
			UncodedPredBytes:    u.PerLayer["model.shuffle_bytes_pred"].Value,
			CodedShuffleBytes:   c.PerLayer["cluster.shuffle_bytes"].Value,
			CodedPredBytes:      c.PerLayer["model.shuffle_bytes_pred"].Value,
		}
		if probed != nil {
			r.Cap.Predicted = probed.PerLayer["model.cap_speedup_pred"].Value
		}
	}
}

// printWorkload prints every metric of one workload by name with its unit.
func printWorkload(out io.Writer, w *workloadResult) {
	fmt.Fprintf(out, "\n== %s  (%s)\n", w.Name, w.Shape)
	fmt.Fprintf(out, "   seed %d, %d rows, loop %s, clients %d, failed %d / attempted %d, %.1f s wall\n",
		w.Seed, w.Rows, w.Loop, w.Clients, w.Failed, w.Attempted, w.WallS)
	for _, d := range endToEnd {
		s := w.EndToEnd[d.Name]
		fmt.Fprintf(out, "   %-14s %10.4f %-3s  q1 %.4f  q3 %.4f  min %.4f  max %.4f  n %d",
			d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.Min, s.Max, s.N)
		if s.TailP > 0 {
			fmt.Fprintf(out, "  p%.0f %.4f", s.TailP, s.Tail)
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "   %-14s %10.1f MB/s (rows x 100 B / job_s; not gated)\n", "mb_per_s", w.MBPerS)
	if w.PerLayer == nil {
		return
	}
	for _, d := range perLayer {
		exact := ""
		if d.Exact {
			exact = "  ="
		}
		fmt.Fprintf(out, "   %-32s %16.6g %s%s\n", d.Name, w.PerLayer[d.Name].Value, d.Unit, exact)
	}
	fmt.Fprintf(out, "   self time by span (sums to %.4f s; root spans last %.4f s)\n", w.SelfSumS, w.RootS)
	for _, row := range w.SelfTime {
		fmt.Fprintf(out, "     %-14s x%-3d busy %9.4f s   self %9.4f s\n", row.Name, row.Count, row.Busy, row.Self)
	}
}

// printSummary prints the cross-workload tables of a full run.
func printSummary(out io.Writer, r *suiteResult) {
	h := r.Host
	fmt.Fprintf(out, "\n== summary  (seed %d, %d rows, %.0f s wall)\n", r.Seed, r.Rows, r.WallS)
	fmt.Fprintf(out, "host: %s, %s, nproc %d, GOMAXPROCS %d, oversubscribed %v\n",
		h.GoVersion, h.CPUModel, h.NProc, h.GOMAXPROCS, h.Oversubscribed)
	fmt.Fprintf(out, "\n%-18s %9s %9s %9s %12s %8s %16s %9s\n",
		"workload", "setup_s", "job_s", "sort_s", "peak_rss_mb", "MB/s", "overhead_share", "failed")
	for _, w := range r.Workloads {
		fmt.Fprintf(out, "%-18s %9.4f %9.4f %9.4f %12.1f %8.1f %16.3f %5d/%-3d\n", w.Name,
			w.EndToEnd["setup_s"].Median, w.EndToEnd["job_s"].Median, w.EndToEnd["sort_s"].Median,
			w.PerLayer["peak_rss_mb"].Value, w.MBPerS, w.PerLayer["cluster.overhead_share"].Value,
			w.Failed, w.Attempted)
	}
	fmt.Fprintf(out, "\nper-stage seconds, traced run (max over ranks; place and verify are outside sort_s)\n%-18s", "workload")
	for _, name := range stageNames {
		fmt.Fprintf(out, " %12s", name)
	}
	fmt.Fprintf(out, " %9s %9s %14s\n", "place_s", "verify_s", "trace_overhead")
	for _, w := range r.Workloads {
		fmt.Fprintf(out, "%-18s", w.Name)
		for _, name := range stageNames {
			fmt.Fprintf(out, " %12.4f", w.PerLayer["engine.stage_s."+name].Value)
		}
		fmt.Fprintf(out, " %9.4f %9.4f %14.3f\n", w.PerLayer["cluster.place_s"].Value,
			w.PerLayer["cluster.verify_s"].Value, w.PerLayer["trace_overhead"].Value)
	}
	if len(r.Ladder) > 0 {
		fmt.Fprintf(out, "\nlayer ladder (MB/s)\n")
		for _, g := range r.Ladder {
			fmt.Fprintf(out, "  %-30s %10.1f\n", g.Name, g.MBPerS)
		}
	}
	if c := r.Cap; c != nil {
		fmt.Fprintf(out, "\ncap_speedup = sort_s(uncoded_cap) / sort_s(coded_cap): measured %.3f, predicted %.3f\n", c.Measured, c.Predicted)
		fmt.Fprintf(out, "  shuffle bytes uncoded: measured %.0f, predicted %.0f\n", c.UncodedShuffleBytes, c.UncodedPredBytes)
		fmt.Fprintf(out, "  shuffle bytes coded:   measured %.0f, predicted %.0f\n", c.CodedShuffleBytes, c.CodedPredBytes)
	}
}

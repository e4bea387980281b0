package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"codedterasort/internal/kv"
)

// budget bounds one measuring loop: a sample count, or when that is 0 a
// wall-clock duration (the loop then takes at least minTimedUnits units).
type budget struct {
	samples int
	seconds float64
}

const minTimedUnits = 3

// plan is how one process measures one workload.
type plan struct {
	// setups is how often set-up is repeated; setup_s is the median.
	setups int
	// untraced is the loop the end-to-end metrics come from.
	untraced budget
	// trace adds the traced loop (stage callbacks installed, spans
	// recorded) the per-layer metrics come from; ladder adds the probes.
	trace  bool
	traced budget
	ladder bool
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one process learned about one workload; the
// full run collects one per workload into result.json.
type workloadResult struct {
	Name    string `json:"name"`
	Shape   string `json:"shape"`
	Loop    string `json:"loop"`
	Clients int    `json:"clients"`
	Seed    uint64 `json:"seed"`
	Rows    int64  `json:"rows"`
	// Attempted and Failed count samples, traced ones included. A sample
	// fails if the call errors, the report is not validated, or any
	// rank's (rows, checksum) differs from the oracle.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// EndToEnd holds setup_s, job_s and sort_s.
	EndToEnd map[string]summary `json:"end_to_end"`
	// Samples are the untraced loop's raw values behind job_s and sort_s, in
	// run order.
	Samples map[string][]float64 `json:"samples"`
	// MBPerS is a sample's rows x 100 B / median job_s, for readers; it is
	// not gated.
	MBPerS float64 `json:"mb_per_s"`
	// PerLayer is set by a traced run; Probed says whether the ladder
	// probes ran in it (their metrics read 0 otherwise).
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
	Probed   bool                   `json:"probed,omitempty"`
	// CountDrift lists exact counts that differed between iterations.
	CountDrift []string `json:"count_drift,omitempty"`
	// SelfTime is the traced run's self-time table; SelfSumS its total and
	// RootS the summed duration of the root spans it must equal.
	SelfTime []selfRow `json:"self_time,omitempty"`
	SelfSumS float64   `json:"self_sum_s,omitempty"`
	RootS    float64   `json:"root_s,omitempty"`
	WallS    float64   `json:"wall_s"`
}

// measured is what a loop produced.
type measured struct {
	its   []iteration
	leaks int
}

// loop runs timed units until the budget is spent. Each unit is preceded
// by a collection and followed by the leak check, both outside the timed
// region; nothing else runs while a unit is timed.
func (e *env) loop(b budget, tr *tracer) measured {
	var m measured
	start := time.Now()
	for units := 0; ; units++ {
		if b.samples > 0 && len(m.its) >= b.samples {
			break
		}
		if b.samples == 0 && units >= minTimedUnits && time.Since(start).Seconds() >= b.seconds {
			break
		}
		runtime.GC()
		m.its = append(m.its, e.iterate(tr)...)
		m.leaks = max(m.leaks, e.leaks())
	}
	return m
}

// peakRSSMB is ru_maxrss of this process in MB (1 MB = 1e6 B).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

func column(its []iteration, f func(iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

// runWorkload measures one workload in this process according to p.
// The spans of the traced loop and the probes come back for the trace file.
func runWorkload(w workload, c config, p plan) (*workloadResult, []span, error) {
	res := &workloadResult{
		Name: w.Name, Shape: w.Shape, Loop: "closed", Clients: 1, Seed: c.seed, Rows: c.rows,
		EndToEnd: map[string]summary{},
	}
	if w.kind == kindSortd {
		res.Clients = sortdClients
	}

	// Set-up, repeated; the first repetition is timed from process start.
	var e *env
	var setups []float64
	for i := 0; i < p.setups; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		if e != nil {
			e.close()
		}
		var err error
		if e, err = setUp(w, c); err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	plain := e.loop(p.untraced, nil)
	// Sampled here so the traced loop and the probes cannot raise it.
	rss := peakRSSMB()
	tr := &tracer{}
	var traced measured
	if p.trace {
		traced = e.loop(p.traced, tr)
	}

	all := append(append([]iteration(nil), plain.its...), traced.its...)
	res.Attempted = len(all)
	for _, it := range all {
		if it.Err != "" {
			res.Failed++
			if len(res.Errors) < 5 {
				res.Errors = append(res.Errors, it.Err)
			}
		}
	}
	res.Samples = map[string][]float64{
		"job_s":  column(plain.its, func(it iteration) float64 { return it.JobS }),
		"sort_s": column(plain.its, func(it iteration) float64 { return it.SortS }),
	}
	jobS, sortS := summarize(res.Samples["job_s"]), summarize(res.Samples["sort_s"])
	res.EndToEnd["setup_s"] = summarize(setups)
	res.EndToEnd["job_s"] = jobS
	res.EndToEnd["sort_s"] = sortS
	var sampleRows int64
	for _, spec := range e.specs {
		sampleRows += spec.Rows
	}
	res.MBPerS = mbPerS(sampleRows*kv.RecordSize, jobS.Median)

	for _, it := range all[1:] {
		if it.Counts.exact() != all[0].Counts.exact() && it.Err == "" && all[0].Err == "" {
			res.CountDrift = append(res.CountDrift, fmt.Sprintf("%+v then %+v", all[0].Counts, it.Counts))
			break
		}
	}

	if p.trace {
		pl := map[string]float64{}
		if p.ladder {
			probed, err := runLadder(c, tr)
			if err != nil {
				return nil, nil, err
			}
			for k, v := range probed {
				pl[k] = v
			}
			res.Probed = true
		}
		e.layerMetrics(pl, plain, traced, jobS, sortS)
		pl["peak_rss_mb"] = rss
		res.PerLayer = map[string]metricValue{}
		for _, d := range perLayer {
			res.PerLayer[d.Name] = metricValue{Value: pl[d.Name], Unit: d.Unit}
		}
		res.SelfTime = selfTable(tr.spans)
		for _, row := range res.SelfTime {
			res.SelfSumS += row.Self
		}
		for _, s := range tr.spans {
			if s.Parent == 0 {
				res.RootS += (s.End - s.Start).Seconds()
			}
		}
	}
	res.WallS = time.Since(processStart).Seconds()
	return res, tr.spans, nil
}

// layerMetrics fills the per-layer metrics the workload itself yields —
// everything but the ladder probes.
func (e *env) layerMetrics(pl map[string]float64, plain, traced measured, jobS, sortS summary) {
	if jobS.Median > 0 {
		pl["cluster.overhead_share"] = 1 - sortS.Median/jobS.Median
		tracedJob := median(column(traced.its, func(it iteration) float64 { return it.JobS }))
		pl["trace_overhead"] = tracedJob/jobS.Median - 1
	}
	c := plain.its[0].Counts
	pl["cluster.shuffle_bytes"] = float64(c.ShuffleBytes)
	pl["cluster.wire_bytes"] = float64(c.WireBytes)
	pl["cluster.chunks"] = float64(c.Chunks)
	pl["cluster.spilled_runs"] = float64(c.SpilledRuns)
	pl["cluster.attempts"] = float64(c.Attempts)
	pl["cluster.leaks"] = float64(max(plain.leaks, traced.leaks))
	for _, spec := range e.specs {
		pl["model.shuffle_bytes_pred"] += float64(predictedShuffleBytes(spec))
	}

	var staged []stageTimes
	for _, it := range traced.its {
		if it.Stages != nil {
			staged = append(staged, *it.Stages)
		}
	}
	if len(staged) > 0 {
		med := func(f func(stageTimes) float64) float64 {
			xs := make([]float64, len(staged))
			for i, st := range staged {
				xs[i] = f(st)
			}
			return median(xs)
		}
		pl["cluster.place_s"] = med(func(st stageTimes) float64 { return st.PlaceS })
		pl["cluster.verify_s"] = med(func(st stageTimes) float64 { return st.VerifyS })
		pl["engine.barrier_wait_s"] = med(func(st stageTimes) float64 { return st.BarrierWaitS })
		for i, name := range stageNames {
			pl["engine.stage_s."+name] = med(func(st stageTimes) float64 { return st.StageS[i] })
			pl["engine.stage_cpu_s."+name] = med(func(st stageTimes) float64 { return st.StageCPU[i] })
		}
	}

	if e.w.kind == kindSortd {
		var queue, run, overhead []float64
		var jobs int
		var busy float64
		for i, it := range plain.its {
			for _, j := range it.Service {
				queue = append(queue, j.QueueWait)
				run = append(run, j.Run)
				overhead = append(overhead, j.HTTPOverhead)
				jobs++
			}
			// A round lasts as long as its slowest client.
			if i%len(e.clients) == 0 {
				round := 0.0
				for _, r := range plain.its[i:min(i+len(e.clients), len(plain.its))] {
					round = max(round, r.JobS)
				}
				busy += round
			}
		}
		pl["service.queue_wait_s"] = median(queue)
		pl["service.run_s"] = median(run)
		pl["service.http_overhead_s"] = median(overhead)
		if busy > 0 {
			pl["service.jobs_per_s"] = float64(jobs) / busy
		}
		pl["service.rejected"] = float64(e.rejected())
	}
}

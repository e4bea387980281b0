package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"codedterasort/internal/cluster"
	"codedterasort/internal/service"
	"codedterasort/internal/stats"
	"codedterasort/internal/trace"
)

// counts are the quantities of one job that must repeat exactly for a
// fixed seed — what a later count-based claim may name.
type counts struct {
	ShuffleBytes int64 `json:"shuffle_bytes"`
	WireBytes    int64 `json:"wire_bytes"`
	Chunks       int64 `json:"chunks"`
	SpilledRuns  int64 `json:"spilled_runs"`
	Attempts     int64 `json:"attempts"`
}

// exact is c without the counts that legitimately vary between runs of one
// seed (see cluster.spilled_runs in metrics.go).
func (c counts) exact() counts {
	c.SpilledRuns = 0
	return c
}

func (c *counts) add(o counts) {
	c.ShuffleBytes += o.ShuffleBytes
	c.WireBytes += o.WireBytes
	c.Chunks += o.Chunks
	c.SpilledRuns += o.SpilledRuns
	c.Attempts += o.Attempts
}

// serviceJob is the sortd-side timing of one job, from its JobStatus
// timestamps and the client's own clock.
type serviceJob struct {
	QueueWait    float64 // StartedAt - SubmittedAt
	Run          float64 // FinishedAt - StartedAt
	HTTPOverhead float64 // client latency - (FinishedAt - SubmittedAt)
}

// iteration is one sample: what the caller waited (JobS), the paper's
// stage total for the same job (SortS), and whether the output was right.
type iteration struct {
	JobS   float64
	SortS  float64
	Err    string // "" = call succeeded, validated, and matched the oracle
	Counts counts
	// Stages is set on traced local and TCP iterations.
	Stages *stageTimes
	// Service is set on sortd iterations, one entry per job of the cycle.
	Service []serviceJob
}

// env is a workload after set-up: oracle built, listeners up, spill
// directory made, one warm-up job done.
type env struct {
	w        workload
	specs    []cluster.Spec
	oracles  []*oracle
	spillDir string

	coord *cluster.Coordinator // kindTCP

	srv     *service.Server // kindSortd
	ts      *httptest.Server
	clients []*service.Client

	// baseGoroutines is the goroutine count after the warm-up; an
	// iteration that ends above it leaked.
	baseGoroutines int
	tracedIters    int
}

// setUp builds everything a workload's timed iterations need and runs one
// untimed warm-up so pools, the heap and lazy initialisation are in steady
// state. The warm-up of a capped workload runs uncapped: the shaper only
// sleeps, so sleeping through it would warm nothing.
func setUp(w workload, c config) (*env, error) {
	e := &env{w: w}
	tmp := filepath.Join(c.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	var err error
	if e.spillDir, err = os.MkdirTemp(tmp, w.Name+"-"); err != nil {
		return nil, err
	}
	e.specs = w.specs(c, e.spillDir)
	for _, spec := range e.specs {
		o, err := buildOracle(spec)
		if err != nil {
			e.close()
			return nil, err
		}
		e.oracles = append(e.oracles, o)
	}
	switch w.kind {
	case kindTCP:
		if e.coord, err = cluster.NewCoordinator("127.0.0.1:0"); err != nil {
			e.close()
			return nil, err
		}
	case kindSortd:
		e.srv = service.New(service.Config{PoolSlots: 8, SpillRoot: e.spillDir})
		e.ts = httptest.NewServer(e.srv.Handler())
		for i := 0; i < sortdClients; i++ {
			e.clients = append(e.clients, service.NewClient(e.ts.URL))
		}
	}
	timed := e.specs
	e.specs = append([]cluster.Spec(nil), timed...)
	for i := range e.specs {
		e.specs[i].RateMbps = 0
	}
	for _, it := range e.iterate(nil) {
		if it.Err != "" {
			e.close()
			return nil, fmt.Errorf("%s: warm-up: %s", w.Name, it.Err)
		}
	}
	e.specs = timed
	e.baseGoroutines = goroutineBaseline()
	return e, nil
}

// close tears the environment down; set-up can then be repeated.
func (e *env) close() {
	if e.coord != nil {
		e.coord.Close()
	}
	if e.ts != nil {
		e.ts.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	if e.spillDir != "" {
		os.RemoveAll(e.spillDir)
	}
}

// settledGoroutines returns the goroutine count once it is at or below
// floor, or after a short wait: goroutines of a finished job (connection
// readers, pool executors) exit just after the call returns.
func settledGoroutines(floor int) int {
	deadline := time.Now().Add(500 * time.Millisecond)
	for {
		n := runtime.NumGoroutine()
		if n <= floor || time.Now().After(deadline) {
			return n
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// goroutineBaseline is the count the warm-up settles to: the first value
// that holds for 20 ms. (Kept-alive HTTP connections and listeners stay, so
// the count before the warm-up is not the floor.)
func goroutineBaseline() int {
	deadline := time.Now().Add(500 * time.Millisecond)
	n, since := runtime.NumGoroutine(), time.Now()
	for time.Since(since) < 20*time.Millisecond && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, since = m, time.Now()
		}
	}
	return n
}

// leaks counts what an iteration left behind: goroutines above the
// post-warm-up baseline plus entries still in the spill directory.
func (e *env) leaks() int {
	n := max(0, settledGoroutines(e.baseGoroutines)-e.baseGoroutines)
	if entries, err := os.ReadDir(e.spillDir); err == nil {
		n += len(entries)
	}
	return n
}

// iterate runs one timed unit — one job, or for sortd_mix one cycle per
// client, all clients starting together — and returns its samples. A
// non-nil tracer makes it a traced iteration: the benchmark's stage
// callbacks are installed and spans recorded.
func (e *env) iterate(tr *tracer) []iteration {
	iter := 0
	if tr != nil {
		e.tracedIters++
		iter = e.tracedIters
	}
	switch e.w.kind {
	case kindTCP:
		return []iteration{e.runTCP(tr, iter)}
	case kindSortd:
		return e.runSortdRound(tr, iter)
	default:
		return []iteration{e.runLocal(tr, iter)}
	}
}

// judge fills the iteration's verdict from a finished job report.
func (e *env) judge(it *iteration, job int, rep *cluster.JobReport, err error) {
	if err != nil {
		it.Err = err.Error()
		return
	}
	it.SortS = rep.Total()
	it.Counts = counts{
		ShuffleBytes: rep.ShuffleLoadBytes, WireBytes: rep.WireBytes,
		Chunks: rep.ChunksShuffled, SpilledRuns: rep.SpilledRuns, Attempts: int64(rep.Attempts),
	}
	if !rep.Validated {
		it.Err = "job report not validated"
		return
	}
	got := make([]partSum, len(rep.Workers))
	for _, w := range rep.Workers {
		if w.Rank < 0 || w.Rank >= len(got) {
			it.Err = fmt.Sprintf("report names rank %d", w.Rank)
			return
		}
		got[w.Rank] = partSum{Rows: w.OutputRows, Checksum: w.OutputChecksum}
	}
	if err := e.oracles[job].check(got); err != nil {
		it.Err = err.Error()
	}
}

// runLocal is one cluster.RunLocalOpts call: job_s is the whole call.
func (e *env) runLocal(tr *tracer, iter int) iteration {
	var rec stageRecorder
	opts := cluster.Options{}
	if tr != nil {
		opts.OnStage = func(r trace.StageRecord) {
			rec.add(r.Attempt, r.Node, r.Stage, r.Elapsed)
		}
	}
	var it iteration
	t0 := time.Now()
	rep, err := cluster.RunLocalOpts(context.Background(), e.specs[0], opts)
	t1 := time.Now()
	it.JobS = t1.Sub(t0).Seconds()
	e.judge(&it, 0, rep, err)
	if tr != nil {
		it.Stages = rec.emit(tr, iter, t0, t1, it.Counts)
	}
	return it
}

// runTCP is one Coordinator.RunJob with K workers joining over loopback:
// job_s runs from before the workers start until the validated report.
func (e *env) runTCP(tr *tracer, iter int) iteration {
	var rec stageRecorder
	spec := e.specs[0]
	errs := make([]error, spec.K)
	var wg sync.WaitGroup
	var it iteration
	t0 := time.Now()
	for i := 0; i < spec.K; i++ {
		var opts cluster.WorkerOptions
		if tr != nil {
			// Ranks are assigned in registration order, which the worker
			// goroutine does not learn; its own index labels the lane.
			opts.OnStage = func(st stats.Stage, elapsed time.Duration) { rec.add(1, i, st, elapsed) }
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = cluster.RunWorker(e.coord.Addr(), opts)
		}()
	}
	rep, err := e.coord.RunJob(spec)
	t1 := time.Now()
	wg.Wait()
	it.JobS = t1.Sub(t0).Seconds()
	e.judge(&it, 0, rep, err)
	for i, werr := range errs {
		if werr != nil && it.Err == "" {
			it.Err = fmt.Sprintf("worker %d: %v", i, werr)
		}
	}
	if tr != nil {
		it.Stages = rec.emit(tr, iter, t0, t1, it.Counts)
	}
	return it
}

// runSortdRound starts every client's four-job cycle together and returns
// one sample per client. The loop is closed: a client submits its next job
// only when the previous one is done.
func (e *env) runSortdRound(tr *tracer, iter int) []iteration {
	out := make([]iteration, len(e.clients))
	var wg sync.WaitGroup
	for ci, cl := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[ci] = e.runSortdCycle(tr, iter, ci, cl)
		}()
	}
	wg.Wait()
	return out
}

// runSortdCycle is one client's cycle: job_s is first submit to last
// result, sort_s the sum of the jobs' stage totals.
func (e *env) runSortdCycle(tr *tracer, iter, ci int, cl *service.Client) iteration {
	ctx := context.Background()
	tenant := fmt.Sprintf("tenant-%d", ci)
	lane := fmt.Sprintf("client %d", ci)
	var it iteration
	cycle := 0
	t0 := time.Now()
	if tr != nil {
		// Recorded first so the jobs can name it as parent; its end is
		// patched below through the returned id.
		cycle = tr.add(0, iter, "cycle", lane, t0, t0, nil)
	}
	for ji, spec := range e.specs {
		s0 := time.Now()
		queued, err := cl.Submit(ctx, service.SubmitRequest{Tenant: tenant, Spec: spec})
		s1 := time.Now()
		var st service.JobStatus
		if err == nil {
			st, err = cl.WaitJob(ctx, queued.ID)
		}
		s2 := time.Now()
		if err != nil {
			it.Err = fmt.Sprintf("job %d: %v", ji, err)
			break
		}
		if st.State != service.StateDone || !st.Validated {
			it.Err = fmt.Sprintf("job %d: state %s validated=%v: %s", ji, st.State, st.Validated, st.Error)
			break
		}
		got := make([]partSum, len(st.Partitions))
		for _, p := range st.Partitions {
			if p.Rank >= 0 && p.Rank < len(got) {
				got[p.Rank] = partSum{Rows: p.Rows, Checksum: p.Checksum}
			}
		}
		if err := e.oracles[ji].check(got); err != nil {
			it.Err = fmt.Sprintf("job %d: %v", ji, err)
			break
		}
		it.SortS += st.TotalSeconds
		it.Counts.add(counts{
			ShuffleBytes: st.ShuffleLoadBytes, WireBytes: st.WireBytes,
			SpilledRuns: st.SpilledRuns, Attempts: int64(st.Attempts),
		})
		it.Service = append(it.Service, serviceJob{
			QueueWait:    st.StartedAt.Sub(st.SubmittedAt).Seconds(),
			Run:          st.FinishedAt.Sub(st.StartedAt).Seconds(),
			HTTPOverhead: s2.Sub(s0).Seconds() - st.FinishedAt.Sub(st.SubmittedAt).Seconds(),
		})
		if tr != nil {
			job := tr.add(cycle, iter, fmt.Sprintf("job %d", ji), lane, s0, s2, map[string]any{
				"id": st.ID, "shuffle_bytes": st.ShuffleLoadBytes, "wire_bytes": st.WireBytes,
				"spilled_runs": st.SpilledRuns, "sort_s": st.TotalSeconds,
			})
			tr.add(job, iter, "submit", lane, s0, s1, nil)
			tr.add(job, iter, "queue", lane, st.SubmittedAt, st.StartedAt, nil)
			tr.add(job, iter, "run", lane, st.StartedAt, st.FinishedAt, nil)
			tr.add(job, iter, "notify", lane, st.FinishedAt, s2, nil)
		}
	}
	t1 := time.Now()
	it.JobS = t1.Sub(t0).Seconds()
	if tr != nil {
		tr.setEnd(cycle, t1)
	}
	return it
}

// rejected scrapes /metrics and sums the per-tenant rejection counters;
// the closed loop never outruns admission, so anything but 0 is a fault.
func (e *env) rejected() int64 {
	text, err := e.clients[0].Metrics(context.Background())
	if err != nil {
		return -1
	}
	var total int64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "sortd_tenant_jobs_rejected_total{") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i >= 0 {
			n, _ := strconv.ParseInt(line[i+1:], 10, 64)
			total += n
		}
	}
	return total
}

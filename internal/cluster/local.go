package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"

	"codedterasort/internal/coded"
	"codedterasort/internal/engine"
	"codedterasort/internal/extsort"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/parallel"
	"codedterasort/internal/partition"
	"codedterasort/internal/stats"
	"codedterasort/internal/trace"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
	"codedterasort/internal/transport/netem"
	"codedterasort/internal/verify"
)

// WorkerReport is one worker's result summary; its JSON form is the report
// frame a TCP worker sends the coordinator.
type WorkerReport struct {
	Rank int `json:"rank"`
	// Summary is the engine's account of the run: stage times, output
	// digest, shuffle, chunk, spill and merge counters, splitter bounds.
	coded.Summary
	// WireBytes counts bytes that actually crossed the transport,
	// including the per-receiver copies of application-layer multicast
	// and control traffic (tokens, barriers, handshakes).
	WireBytes int64 `json:"wire_bytes"`
	// Output is the rank's output, which never rides the wire: a sort
	// job's sorted partition when Spec.KeepOutput is set, a MapReduce job's
	// reduced output always (mapreduce.RunLocal).
	Output kv.Records `json:"-"`
}

// JobReport aggregates a completed job.
type JobReport struct {
	Spec    Spec
	Workers []WorkerReport
	// Times is the cluster-level breakdown: per-stage maximum over
	// workers, matching how the paper reports synchronized stage times.
	Times stats.Breakdown
	// ShuffleLoadBytes is the total shuffle payload (multicast counted
	// once) — the communication load the theory bounds.
	ShuffleLoadBytes int64
	// ChunksShuffled is the total pipelined chunk count across workers
	// (0 when Spec.ChunkRows is unset).
	ChunksShuffled int64
	// SpilledRuns is the total external-sort runs spilled across workers.
	SpilledRuns int64
	// Spill is the total spill volume across workers, raw vs on disk.
	Spill stats.SpillStats
	// MergeOVCDecided and MergeFullCompares total the workers' out-of-core
	// merge match counters (offset-value-code decisions vs full key
	// compares).
	MergeOVCDecided   int64
	MergeFullCompares int64
	// WireBytes is the total transport-level traffic.
	WireBytes int64
	// Validated is set when a sort job's output passed verification
	// against the input multiset and ordering invariants. A MapReduce
	// job's reduced output is not self-verified — mapreduce.Sequential is
	// its oracle — so its report leaves Validated false.
	Validated bool
	// Stages is the cluster-wide stage timeline, recorded through the
	// engine runtime's per-stage hook (over TCP, from the workers' progress
	// frames): every worker's completed stages in completion order,
	// attempt-tagged across recovery re-executions. Per rank, the
	// successful attempt's records sum to that worker's Summary.Times.
	Stages []trace.StageRecord
	// Attempts counts the job executions recovery used (1 = ran clean).
	Attempts int
	// Recovered lists the faults detected and recovered from, in detection
	// order (empty when the job ran clean).
	Recovered []Suspect
}

// Total returns the cluster-level total execution time.
func (j JobReport) Total() float64 { return j.Times.Total().Seconds() }

// RunLocal executes the sort job with all K workers in this process under
// Supervise, then verifies the outputs against the input (order, partition
// membership, multiset equality) before the report is returned; see
// RunLocalOpts for who generates the input. With
// MemBudget set (and KeepOutput unset, which defeats the point of a budget)
// the sorted partitions are never materialized: each worker streams its
// output blocks into a verify.PartitionChecker, so verification itself runs
// in O(block) memory.
func RunLocal(spec Spec) (*JobReport, error) {
	return RunLocalOpts(context.Background(), spec, Options{})
}

// Options tunes a supervised in-process run beyond what the wire-portable
// Spec carries: live observation and executor placement. The zero value
// reproduces RunLocal exactly.
type Options struct {
	// OnStage, when non-nil, receives every completed stage record as it
	// is logged, across all ranks and recovery attempts — the live feed a
	// serving layer turns into job progress and metrics. It runs on worker
	// goroutines, so it must be cheap and safe for concurrent use.
	OnStage func(trace.StageRecord)
	// spawn runs one rank lifecycle; nil spawns a fresh goroutine per
	// rank per attempt. A Pool lease sets it so rank lifecycles execute on
	// reusable pooled executors instead.
	spawn func(task func())
	// mux, when above 1, multiplexes that many logical ranks onto each
	// spawned executor: rank lifecycles are batched and every batch runs
	// its ranks as goroutines inside one executor task. This is what lets
	// a K=64..128 job run on a pool of a few executors — ranks block on
	// the in-memory transport, not on executor slots, so batching cannot
	// deadlock. Ignored without spawn.
	mux int
}

// startTasks launches every rank lifecycle of an attempt through the
// configured spawner. Without a spawner each task gets its own goroutine;
// with one, tasks are batched mux ranks per executor.
func (o Options) startTasks(tasks []func()) {
	if o.spawn == nil {
		for _, task := range tasks {
			go task()
		}
		return
	}
	batch := o.mux
	if batch < 1 {
		batch = 1
	}
	for lo := 0; lo < len(tasks); lo += batch {
		hi := lo + batch
		if hi > len(tasks) {
			hi = len(tasks)
		}
		group := tasks[lo:hi]
		o.spawn(func() {
			var wg sync.WaitGroup
			for _, task := range group {
				wg.Add(1)
				go func(task func()) {
					defer wg.Done()
					task()
				}(task)
			}
			wg.Wait()
		})
	}
}

// RunLocalOpts is RunLocal with cancellation and run options; see
// Supervise for both.
//
// An in-memory job (MemBudget unset) gets its input from the supervisor:
// every file of the placement plan is generated once, on every core, and
// described in the same pass (verify.Materialize), or an InputDir job's
// part files are read once and described from the bytes read. Every rank
// aliases its files (job.Local.Input) instead of generating its replicas,
// and the output is verified against that description, taken before any
// rank ran. An out-of-core job must never hold its input, so its ranks
// generate or scan it block by block and the verifier describes it the
// same way after the job.
func RunLocalOpts(ctx context.Context, spec Spec, opts Options) (*JobReport, error) {
	return runLocal(ctx, spec, opts, runWorker)
}

// workerFunc runs the sort on one endpoint: runWorker, or in tests a
// wrapper around it that tampers with what one rank reads or returns.
type workerFunc func(ep transport.Endpoint, spec Spec, local job.Local, sink func(kv.Records) error, hooks engine.Hooks) (WorkerReport, error)

// runLocal is RunLocalOpts with every rank's body run by work.
func runLocal(ctx context.Context, spec Spec, opts Options, work workerFunc) (*JobReport, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// The partitioner the output is verified against is resolved once per
	// job. Under sampled partitioning its splitters are the ranks' too:
	// they are preset into the spec the ranks run, so no rank samples.
	p, err := verifyPartitioner(spec)
	if err != nil {
		return nil, err
	}
	rankSpec := spec
	if sp, ok := p.(partition.Splitters); ok {
		rankSpec.Splitters = sp.Bounds()
	}
	var input *placedInput
	if spec.MemBudget == 0 {
		if input, err = placeInput(ctx, rankSpec); err != nil {
			return nil, err
		}
		rankSpec = input.spec
	}
	var sums []verify.Summary
	if spec.MemBudget > 0 && !spec.KeepOutput {
		sums = make([]verify.Summary, spec.K)
	}
	rep, err := Supervise(ctx, rankSpec, opts, func(ep transport.Endpoint, spec Spec, hooks engine.Hooks) (WorkerReport, error) {
		var local job.Local
		if input != nil {
			local.Input = input.take(ep.Rank())
		}
		if sums == nil {
			return work(ep, spec, local, nil, hooks)
		}
		// Every rank of the attempt that succeeds overwrites its own slot,
		// so only that attempt's checker summaries survive.
		c := verify.NewPartitionChecker(p, ep.Rank())
		w, err := work(ep, spec, local, c.Feed, hooks)
		sums[ep.Rank()] = c.Summary()
		return w, err
	})
	if err != nil {
		return nil, err
	}
	rep.Spec = spec
	var in verify.Input
	if input != nil {
		in = input.desc
	} else if in, err = describeInput(spec); err != nil {
		return nil, fmt.Errorf("cluster: describing input: %w", err)
	}
	if err := verifyOutput(rep, p, in, sums); err != nil {
		return nil, err
	}
	if !spec.KeepOutput {
		for r := range rep.Workers {
			rep.Workers[r].Output = kv.Records{}
		}
	}
	return rep, nil
}

// placedInput is an in-memory job's input as the supervisor placed it: the
// files every rank aliases, their description, and the spec the ranks run.
type placedInput struct {
	// spec is the ranks' spec, except that an InputDir job's files arrive
	// as Local.Input, so it names no directory.
	spec Spec
	desc verify.Input
	// held[r] is rank r's reference to the files until the rank takes it.
	// Unless another attempt may need the files, taking clears the slot, so
	// once every rank has placed, each file lives only until its holders
	// have mapped it.
	held [][]kv.Records
	keep bool
}

// placeInput generates the input files of spec's placement plan (or reads
// an InputDir job's part files) and describes them in the same pass. A
// cancel that arrives meanwhile returns ctx's error before any rank starts.
func placeInput(ctx context.Context, spec Spec) (*placedInput, error) {
	resolved, err := spec.Resolve(job.Local{})
	if err != nil {
		return nil, err
	}
	in := &placedInput{spec: spec, keep: resolved.MaxAttempts > 1}
	var files []kv.Records
	if spec.InputDir == "" {
		plan, err := resolved.Strat.Plan(spec.Rows)
		if err != nil {
			return nil, err
		}
		files, in.desc, err = verify.Materialize(ctx, kv.NewGenerator(spec.Seed, resolved.KeyDist), plan.Bounds)
		if err != nil {
			return nil, fmt.Errorf("cluster: placing input: %w", err)
		}
	} else {
		if files, in.desc, err = readInput(spec.InputDir, spec.K); err != nil {
			return nil, err
		}
		in.spec.InputDir = ""
	}
	in.held = make([][]kv.Records, spec.K)
	for r := range in.held {
		in.held[r] = files
	}
	return in, nil
}

// take hands rank its reference to the files.
func (in *placedInput) take(rank int) []kv.Records {
	files := in.held[rank]
	if !in.keep {
		in.held[rank] = nil
	}
	return files
}

// readInput reads the K part files of a teragen -disk directory, each once
// and on every core, and describes them from the bytes read.
func readInput(dir string, k int) ([]kv.Records, verify.Input, error) {
	files := make([]kv.Records, k)
	if err := parallel.Do(runtime.GOMAXPROCS(0), k, func(i int) error {
		buf, err := os.ReadFile(extsort.PartFile(dir, i))
		if err != nil {
			return fmt.Errorf("cluster: read input file: %w", err)
		}
		files[i], err = kv.NewRecords(buf)
		return err
	}); err != nil {
		return nil, verify.Input{}, err
	}
	var in verify.Input
	for _, f := range files {
		d := verify.Describe(f)
		in.Rows += d.Rows
		in.Checksum += d.Checksum
	}
	return files, in, nil
}

// RankFunc is one rank's body for one supervised attempt: it runs the job's
// worker on ep under spec — the attempt's spec, the respawned ranks' faults
// removed — with hooks observing every stage (they feed the stage log and
// the deadline detector), and returns the rank's report. Supervise fills in
// the report's Rank and WireBytes. An engine.KilledError return is the
// rank's death; any other error is a failure.
type RankFunc func(ep transport.Endpoint, spec Spec, hooks engine.Hooks) (WorkerReport, error)

// Supervise runs a job's K ranks in this process over the in-memory
// transport, traffic-shaped per the spec, with rank as every rank's body —
// the one in-process supervisor, shared by the sort (RunLocalOpts) and the
// MapReduce framework (mapreduce.RunLocal). It detects dead and straggling
// ranks (crash signals always; peer-relative stage deadlines when
// Spec.StageDeadline is armed) and recovers by attempt-scoped
// re-execution: the attempt is canceled, which unblocks every peer stuck
// at the faulty rank's barrier, and the job re-runs with the faulty rank's
// worker respawned, up to Spec.MaxAttempts. The report rolls up the
// successful attempt's worker reports and carries the attempt history in
// Attempts, Recovered and the attempt-tagged stage log; verifying the
// output is the caller's business.
//
// Canceling ctx checkpoint-cancels the job: the current attempt's mesh is
// closed, which unblocks every rank at its next transport operation exactly
// like fault recovery's attempt cancelation, and the job returns ctx's
// error instead of recovering. Long-lived callers (the sortd service) use
// it to drain without waiting out a slow job.
func Supervise(ctx context.Context, spec Spec, opts Options, rank RankFunc) (*JobReport, error) {
	resolved, err := spec.Resolve(job.Local{})
	if err != nil {
		return nil, err
	}
	// One stage log spans all attempts, so the recovery timeline (failed
	// attempts' partial records included) survives into the report.
	stageLog := trace.NewStageLog(stats.NewWallClock())
	if opts.OnStage != nil {
		stageLog.Observe(opts.OnStage)
	}
	consumed := map[int]bool{}
	var recovered []Suspect
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cluster: job canceled: %w", err)
		}
		reports, suspects, err := runAttempt(ctx, spec, coded.Columns(resolved), opts, rank, consumed, attempt, stageLog)
		if err == nil {
			rep := rollup(spec, reports)
			rep.Attempts = attempt
			rep.Recovered = recovered
			rep.Stages = stageLog.Records()
			return rep, nil
		}
		if len(suspects) == 0 {
			// A genuine failure, not a detected fault: no recovery.
			return nil, err
		}
		if allFailed(suspects) {
			// A worker exited with its own error (bad input file,
			// unwritable spill dir): the cancel already unblocked its
			// peers, but re-executing a deterministic failure only wastes
			// attempts — surface the error instead of recovering.
			return nil, err
		}
		recovered = append(recovered, suspects...)
		if attempt >= resolved.MaxAttempts {
			return nil, fmt.Errorf("cluster: job failed after %d attempt(s), unrecovered faults %v: %w",
				attempt, suspects, err)
		}
		// Respawn: replacement workers take over the detected ranks, so
		// their injected faults are consumed and do not strike again.
		for _, s := range suspects {
			consumed[s.Rank] = true
		}
		stageLog.NewAttempt()
	}
}

// allFailed reports whether every suspect is a genuine worker error
// rather than a death or straggle — the unrecoverable kind.
func allFailed(suspects []Suspect) bool {
	for _, s := range suspects {
		if s.Reason != "failed" {
			return false
		}
	}
	return true
}

// runAttempt executes one supervised attempt and returns its per-rank
// reports; columns is the job's schedule (coded.Columns), by which the
// monitor names a failed rank's stage. On a detected fault it returns the
// suspects alongside the error; an error with no suspects is a genuine
// (unrecoverable) failure.
func runAttempt(ctx context.Context, spec Spec, columns []stats.Stage, opts Options, rank RankFunc, consumed map[int]bool, attempt int, stageLog *trace.StageLog) ([]WorkerReport, []Suspect, error) {
	// Replacement workers took over the consumed ranks, so their injected
	// faults do not strike this attempt.
	attemptSpec := spec
	attemptSpec.Faults = spec.FaultsWithout(consumed)
	mesh := memnet.NewMesh(spec.K)
	defer mesh.Close()

	// Cancellation rides the recovery machinery: closing the mesh unblocks
	// every rank at its next transport operation with ErrClosed, the same
	// way a detected fault cancels an attempt.
	stopCancel := context.AfterFunc(ctx, func() { mesh.Close() })
	defer stopCancel()

	// Detection: crash signals from worker goroutines plus the
	// peer-relative stage deadline; cancel closes the mesh, unblocking
	// every rank stuck on the faulty one with ErrClosed.
	mon := newMonitor(spec.K, columns, spec.StageDeadline, false, attempt, func() { mesh.Close() })
	mon.Watch()
	defer mon.Stop()

	reports := make([]WorkerReport, spec.K)
	errs := make([]error, spec.K)
	var wg sync.WaitGroup
	tasks := make([]func(), spec.K)
	for r := range tasks {
		wg.Add(1)
		tasks[r] = func() {
			defer wg.Done()
			var conn transport.Conn = mesh.Endpoint(r)
			if spec.RateMbps > 0 || spec.PerMessage > 0 {
				shape := netem.Options{RateMbps: spec.RateMbps, PerMessage: spec.PerMessage}
				if spec.StragglerFactor > 1 && r == spec.StragglerRank {
					shape.SlowFactor = spec.StragglerFactor
				}
				conn = netem.Limit(conn, shape)
			}
			meter := transport.NewMeter(conn)
			hooks := func(ev engine.StageEvent) {
				stageLog.Record(ev.Rank, ev.Stage, ev.Elapsed, ev.Err)
				if ev.Err == nil {
					mon.StageEnd(ev.Rank, ev.Stage)
				}
			}
			rep, err := rank(transport.WithCollectives(meter), attemptSpec, hooks)
			if err != nil {
				errs[r] = err
				// Any exited worker strands its peers at a barrier or a
				// pending receive, so every worker error cancels the
				// attempt (the supervisor's crash signal; over TCP it is
				// the worker's broken coordinator connection). A killed
				// rank is recorded as a death; a genuine error as a
				// failure — but first-detection freezing means casualties
				// of the cancellation itself are never blamed.
				var killed *engine.KilledError
				if errors.As(err, &killed) {
					mon.Crashed(killed.Rank, killed.Stage)
				} else {
					mon.Errored(r)
				}
				return
			}
			rep.Rank = r
			rep.WireBytes = meter.Counters().SentBytes
			reports[r] = rep
		}
	}
	opts.startTasks(tasks)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// A canceled job is not a fault: no suspects, no recovery — the
		// caller asked for the stop.
		return nil, nil, fmt.Errorf("cluster: job canceled: %w", err)
	}
	if suspects := mon.Suspects(); len(suspects) > 0 {
		// Prefer the detected rank's own error over a casualty's ErrClosed.
		werr := errs[suspects[0].Rank]
		if werr == nil {
			for _, e := range errs {
				if e != nil {
					werr = e
					break
				}
			}
		}
		err := fmt.Errorf("cluster: attempt %d canceled, detected %v", attempt, suspects)
		if werr != nil {
			err = fmt.Errorf("cluster: attempt %d canceled, detected %v: %w", attempt, suspects, werr)
		}
		return nil, suspects, err
	}
	for r, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: worker %d: %w", r, err)
		}
	}
	return reports, nil, nil
}

// rollup builds the job report from the per-rank reports: per-stage maxima
// and job-wide counter totals.
func rollup(spec Spec, reports []WorkerReport) *JobReport {
	job := &JobReport{Spec: spec, Workers: reports}
	for _, w := range reports {
		job.Times = job.Times.Max(w.Times)
		job.ShuffleLoadBytes += w.SentBytes
		job.WireBytes += w.WireBytes
		job.ChunksShuffled += w.ChunksSent
		job.SpilledRuns += w.SpilledRuns
		job.Spill.Add(w.Spill)
		job.MergeOVCDecided += w.MergeOVCDecided
		job.MergeFullCompares += w.MergeFullCompares
	}
	return job
}

// verifyOutput verifies a sort job's output against p and the input's
// description in. The evidence is the streaming checkers' summaries when
// sums is non-nil, the workers' materialized outputs otherwise. It runs
// after the last timed stage, when every rank has gone idle, so the K
// partition checks use every core.
func verifyOutput(job *JobReport, p partition.Partitioner, in verify.Input, sums []verify.Summary) error {
	if err := checkSplitterAgreement(p, job.Workers); err != nil {
		return err
	}
	var err error
	if sums == nil {
		outputs := make([]kv.Records, len(job.Workers))
		for r, w := range job.Workers {
			outputs[r] = w.Output
		}
		err = verify.SortedOutput(outputs, p, in)
	} else {
		err = verify.CheckSummaries(sums, in)
	}
	if err != nil {
		return fmt.Errorf("cluster: output verification failed: %w", err)
	}
	job.Validated = true
	return nil
}

// checkSplitterAgreement verifies, when p is a sampled job's Splitters,
// that every worker reported the same splitter bounds and that they match
// p's, the coordinator's own derivation from the deterministic sample. A
// mismatch means the sample's determinism argument was violated
// (non-deterministic input read, a worker partitioned by stale bounds after
// recovery) and the job's output, though locally sorted, would not be
// globally partitioned as verified. A uniform job has no bounds to agree on.
func checkSplitterAgreement(p partition.Partitioner, reports []WorkerReport) error {
	sp, ok := p.(partition.Splitters)
	if !ok {
		return nil
	}
	want := sp.Bounds()
	for _, w := range reports {
		if len(w.SplitterBounds) != len(want) {
			return fmt.Errorf("cluster: worker %d reported %d splitters, expected %d",
				w.Rank, len(w.SplitterBounds), len(want))
		}
		for i, b := range w.SplitterBounds {
			if !bytes.Equal(b, want[i]) {
				return fmt.Errorf("cluster: worker %d splitter %d diverged from the deterministic sample",
					w.Rank, i)
			}
		}
	}
	return nil
}

// inputFiles lists the K part files of a teragen -disk directory.
func inputFiles(dir string, k int) []string {
	files := make([]string, k)
	for i := range files {
		files[i] = extsort.PartFile(dir, i)
	}
	return files
}

// describeInput summarizes the input of a job whose input this process
// does not hold — a TCP job's, an out-of-core job's — for multiset
// verification: generated data is described by regeneration, file-backed
// data by a streaming scan of the part files — both on every core, in
// O(block) memory per core.
func describeInput(spec Spec) (verify.Input, error) {
	if spec.InputDir == "" {
		return verify.DescribeGenerated(kv.NewGenerator(spec.Seed, spec.Dist()), spec.Rows), nil
	}
	files := inputFiles(spec.InputDir, spec.K)
	parts := make([]verify.Input, len(files))
	if err := parallel.Do(runtime.GOMAXPROCS(0), len(files), func(i int) error {
		return extsort.ScanFile(files[i], 1<<12, func(b kv.Records) error {
			parts[i].Rows += int64(b.Len())
			parts[i].Checksum += b.Checksum()
			return nil
		})
	}); err != nil {
		return verify.Input{}, err
	}
	var in verify.Input
	for _, part := range parts {
		in.Rows += part.Rows
		in.Checksum += part.Checksum
	}
	return in, nil
}

// runWorker executes the sort on one endpoint, with local attached. A
// non-nil sink receives the sorted partition as ascending blocks instead of
// it being returned in the report's Output; hooks observe each completed
// stage through the engine runtime.
func runWorker(ep transport.Endpoint, spec Spec, local job.Local, sink func(kv.Records) error, hooks engine.Hooks) (WorkerReport, error) {
	res, err := coded.Run(ep, coded.Config{Spec: spec, Local: local, OutputSink: sink, Hooks: hooks})
	if err != nil {
		return WorkerReport{}, err
	}
	return WorkerReport{Summary: res.Summary, Output: res.Output}, nil
}

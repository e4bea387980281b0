package cluster

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"

	"codedterasort/internal/coded"
	"codedterasort/internal/extsort"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/parallel"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
	"codedterasort/internal/stats"
	"codedterasort/internal/trace"
	"codedterasort/internal/transport"
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
// Supervise and verifies the outputs against the input (order, partition
// membership, multiset equality) before the report is returned; see
// RunLocalOpts for who generates the input. The sorted partitions are never
// materialized: each worker's Reduce streams its output blocks into a
// verify.PartitionChecker, so a partition is checked while it is still in
// cache and in O(block) memory, and only the checkers' summaries are left
// to close after the job. KeepOutput copies each checked block into the
// worker's report.
func RunLocal(spec Spec) (*JobReport, error) {
	return RunLocalOpts(context.Background(), spec, Options{})
}

// Options tunes a supervised in-process run beyond what the wire-portable
// Spec carries. The zero value reproduces RunLocal exactly.
type Options struct {
	// OnStage, when non-nil, receives every completed stage record as it
	// is logged, across all ranks and recovery attempts — the live feed a
	// serving layer turns into job progress and metrics. It runs on worker
	// goroutines, so it must be cheap and safe for concurrent use.
	OnStage func(trace.StageRecord)
}

// RunLocalOpts is RunLocal with cancellation and run options; see
// Supervise for both.
//
// Every job gets its input from the supervisor, and the output is verified
// against the supervisor's description of it. An in-memory job (MemBudget
// unset): every file of the placement plan is generated once, on every
// core, and described in the same pass (verify.Materialize), or an
// InputDir job's part files are read once and described from the bytes
// read, before any rank runs; every rank aliases its files
// (job.Local.Input) instead of generating its replicas. An out-of-core job
// must never hold its input: each rank scans its files through the
// supervisor (job.Local.Scan), which generates or reads them block by
// block into the rank and digests each file during its lowest-ranked
// holder's scan, so the input is read once and described on the way.
func RunLocalOpts(ctx context.Context, spec Spec, opts Options) (*JobReport, error) {
	return runLocal(ctx, spec, opts, runWorker)
}

// workerFunc runs the sort on one endpoint: runWorker, or in tests a
// wrapper around it that tampers with what one rank reads or returns.
type workerFunc func(ep transport.Endpoint, spec Spec, local job.Local, sink func(kv.Records) error, hooks coded.Hooks) (WorkerReport, error)

// runLocal is RunLocalOpts with every rank's body run by work.
func runLocal(ctx context.Context, spec Spec, opts Options, work workerFunc) (*JobReport, error) {
	rankSpec, p, err := prepare(spec)
	if err != nil {
		return nil, err
	}
	var input *placedInput
	var scanned *scannedInput
	if spec.MemBudget == 0 {
		if input, err = placeInput(ctx, rankSpec); err != nil {
			return nil, err
		}
		rankSpec = input.spec
	} else {
		if scanned, err = scanInput(rankSpec); err != nil {
			return nil, err
		}
		rankSpec = scanned.spec
	}
	checks := make([]*outputCheck, spec.K)
	rep, err := Supervise(ctx, rankSpec, opts, func(actx context.Context, ep transport.Endpoint, spec Spec, hooks coded.Hooks) (WorkerReport, error) {
		local := job.Local{Done: actx.Done()}
		if input != nil {
			local.Input = input.take(ep.Rank())
		} else {
			local.Scan = scanned.scan(ep.Rank())
		}
		// Every rank of the attempt that succeeds overwrites its own slot,
		// so only that attempt's checks survive.
		c := &outputCheck{PartitionChecker: verify.NewPartitionChecker(p, ep.Rank()), keep: spec.KeepOutput}
		w, err := work(ep, spec, local, c.feed, hooks)
		checks[ep.Rank()] = c
		w.Output = c.kept
		return w, err
	})
	if err != nil {
		return nil, err
	}
	rep.Spec = spec
	var in verify.Input
	if input != nil {
		in = input.desc
	} else if in, err = scanned.describe(); err != nil {
		return nil, fmt.Errorf("cluster: output verification failed: %w", err)
	}
	sums := make([]verify.Summary, spec.K)
	var failed error
	for r, c := range checks {
		sums[r] = c.Summary()
		if failed == nil {
			failed = c.failed
		}
	}
	if err := verifyOutput(rep, p, in, sums, failed); err != nil {
		return nil, err
	}
	return rep, nil
}

// outputCheck is the sink the runtime hands a rank: its partition's
// checker. A failed check is the job's verification failure, not the
// rank's: the first is latched and later blocks go unchecked, so the rank
// finishes and no one is blamed for what the checker found. A KeepOutput
// rank's checked blocks are also copied out.
type outputCheck struct {
	*verify.PartitionChecker
	failed error
	keep   bool
	kept   kv.Records
}

func (c *outputCheck) feed(block kv.Records) error {
	if c.failed != nil {
		return nil
	}
	if c.failed = c.Feed(block); c.failed == nil && c.keep {
		c.kept = c.kept.AppendRecords(block)
	}
	return nil
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

// scannedInput is an out-of-core job's input as the supervisor hands it to
// the ranks: each file generated, or read from its part file, block by
// block into the rank that scans it. Its lowest-ranked holder digests each
// block before handing it over and stores the file's description when the
// scan completes, replacing an earlier attempt's, so each file counts once
// and one no attempt scanned whole shows as missing rows.
type scannedInput struct {
	// spec is the ranks' spec; an InputDir job's files arrive through the
	// scan, so it names no directory.
	spec Spec
	gen  *kv.Generator
	dir  string
	plan placement.Plan
	// files[i] is file i's description. Only its lowest-ranked holder
	// writes it, once per attempt, and attempts end before verification.
	files []verify.Input
}

// scanInput prepares spec's input for scanning.
func scanInput(spec Spec) (*scannedInput, error) {
	resolved, err := spec.Resolve(job.Local{})
	if err != nil {
		return nil, err
	}
	in := &scannedInput{spec: spec, gen: kv.NewGenerator(spec.Seed, resolved.KeyDist), dir: spec.InputDir}
	if in.plan, err = resolved.Strat.Plan(spec.Rows); err != nil {
		return nil, err
	}
	in.files = make([]verify.Input, in.plan.NumFiles())
	in.spec.InputDir = ""
	return in, nil
}

// scan returns rank's scan of the input (job.Local.Scan).
func (in *scannedInput) scan(rank int) func(i, blockRows int, fn func(kv.Records) error) error {
	return func(i, blockRows int, fn func(kv.Records) error) error {
		if in.plan.Files[i].Min() != rank {
			return in.blocks(i, blockRows, fn)
		}
		var d verify.Input
		err := in.blocks(i, blockRows, func(b kv.Records) error {
			d.Rows += int64(b.Len())
			d.Checksum += b.Checksum()
			return fn(b)
		})
		if err == nil {
			in.files[i] = d
		}
		return err
	}
}

// blocks feeds file i to fn in blocks of at most blockRows records.
func (in *scannedInput) blocks(i, blockRows int, fn func(kv.Records) error) error {
	if in.dir != "" {
		return extsort.ScanFile(extsort.PartFile(in.dir, i), blockRows, fn)
	}
	first, last := in.plan.FileRows(i)
	return in.gen.GenerateBlocks(first, last-first, blockRows, fn)
}

// describe totals the files' descriptions once every rank has returned,
// refusing an input some file of which was not described whole: each must
// hold the plan's rows, or its part file's.
func (in *scannedInput) describe() (verify.Input, error) {
	var total verify.Input
	for i, d := range in.files {
		rows := in.plan.FileRowCount(i)
		if in.dir != "" {
			st, err := os.Stat(extsort.PartFile(in.dir, i))
			if err != nil {
				return verify.Input{}, err
			}
			rows = st.Size() / kv.RecordSize
		}
		if d.Rows != rows {
			return verify.Input{}, fmt.Errorf("input file %d was scanned as %d rows, it has %d", i, d.Rows, rows)
		}
		total.Rows += d.Rows
		total.Checksum += d.Checksum
	}
	return total, nil
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

// verifyOutput closes the verification of a sort job's output against p
// and the input's description in. Each partition was checked as its rank
// reduced it — order and membership, by a verify.PartitionChecker fed
// every block — and sums are the checkers' summaries, in rank order;
// failed, when non-nil, is a partition check that failed. What is left is
// the cross-partition and whole-input check over the summaries.
func verifyOutput(job *JobReport, p partition.Partitioner, in verify.Input, sums []verify.Summary, failed error) error {
	if err := checkSplitterAgreement(p, job.Workers); err != nil {
		return err
	}
	err := failed
	if err == nil {
		err = verify.CheckSummaries(sums, in)
	}
	if err != nil {
		return fmt.Errorf("cluster: output verification failed: %w", err)
	}
	// The engine does not digest its output; the checkers did.
	for r := range job.Workers {
		job.Workers[r].OutputRows, job.Workers[r].OutputChecksum = sums[r].Rows, sums[r].Checksum
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

// describeInput summarizes the input of a TCP job, which this process
// neither holds nor hands out, for multiset verification: generated data is
// described by regeneration, file-backed data by a streaming scan of the
// part files — both on every core, in O(block) memory per core. A canceled
// ctx stops it between blocks with ctx's error.
func describeInput(ctx context.Context, spec Spec) (verify.Input, error) {
	if spec.InputDir == "" {
		return verify.DescribeGeneratedContext(ctx, kv.NewGenerator(spec.Seed, spec.Dist()), spec.Rows)
	}
	parts := make([]verify.Input, spec.K)
	if err := parallel.Do(runtime.GOMAXPROCS(0), spec.K, func(i int) error {
		return extsort.ScanFile(extsort.PartFile(spec.InputDir, i), 1<<12, func(b kv.Records) error {
			parts[i].Rows += int64(b.Len())
			parts[i].Checksum += b.Checksum()
			return ctx.Err()
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
func runWorker(ep transport.Endpoint, spec Spec, local job.Local, sink func(kv.Records) error, hooks coded.Hooks) (WorkerReport, error) {
	res, err := coded.Run(ep, coded.Config{Spec: spec, Local: local, OutputSink: sink, Hooks: hooks})
	if err != nil {
		return WorkerReport{}, err
	}
	return WorkerReport{Summary: res.Summary, Output: res.Output}, nil
}

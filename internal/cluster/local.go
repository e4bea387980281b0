package cluster

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

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
	// InputFiles describes the input files this rank placed and is the
	// lowest-ranked holder of, as they were made: the job's input
	// description, one per file, in every runtime.
	InputFiles []FileInput `json:"input_files,omitempty"`
	// Output is the rank's output, which never rides the wire: a sort
	// job's sorted partition when Spec.KeepOutput is set, a MapReduce job's
	// reduced output always (mapreduce.RunLocal).
	Output kv.Records `json:"-"`
}

// FileInput is input file File's description (rows and multiset
// checksum), taken by its lowest-ranked holder as it placed the file.
type FileInput struct {
	File int `json:"file"`
	verify.Input
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
// Every rank gets its input from one source the supervisor shares among
// them (fileSource), file by file, and the output is verified against the
// descriptions the ranks report of what they were handed. An in-memory
// rank's Place loads each file it stores (job.Local.Load): the file is
// generated, or read from its part file, once, by the first of its holders
// to load it, described in the same pass, and aliased by the others. An
// out-of-core job must never hold its input: each rank scans its files
// through the source (job.Local.Scan), which generates or reads them block
// by block into the rank. Either way each file's lowest-ranked holder
// reports the file's description, so the input is made once per attempt
// and described on the way.
func RunLocalOpts(ctx context.Context, spec Spec, opts Options) (*JobReport, error) {
	return runLocal(ctx, spec, opts, runWorker)
}

// workerFunc runs the sort on one endpoint: runWorker, or in tests a
// wrapper around it that tampers with what one rank reads or returns.
type workerFunc func(ep transport.Endpoint, spec Spec, local job.Local, sink func(kv.Records) error, hooks coded.Hooks) (WorkerReport, error)

// runLocal is RunLocalOpts with every rank's body run by work.
func runLocal(ctx context.Context, spec Spec, opts Options, work workerFunc) (*JobReport, error) {
	jp, err := prepare(spec)
	if err != nil {
		return nil, err
	}
	source := newFileSource(jp.spec, jp.resolved, jp.plan, kv.Records{}, -1)
	checks := make([]*outputCheck, spec.K)
	rep, err := Supervise(ctx, source.spec, opts, func(actx context.Context, ep transport.Endpoint, spec Spec, hooks coded.Hooks) (WorkerReport, error) {
		local, h := source.hold(actx, ep.Rank())
		// Every rank of the attempt that succeeds overwrites its own slot,
		// so only that attempt's checks survive.
		c := &outputCheck{PartitionChecker: verify.NewPartitionChecker(jp.part, ep.Rank()), keep: spec.KeepOutput}
		w, err := work(ep, spec, local, c.feed, hooks)
		checks[ep.Rank()] = c
		w.Output = c.kept
		w.InputFiles = h.described
		return w, err
	})
	if err != nil {
		return nil, err
	}
	rep.Spec = spec
	in, err := describedInput(jp.plan, spec.InputDir == "", rep.Workers)
	if err != nil {
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
	if err := verifyOutput(rep, jp.part, in, sums, failed); err != nil {
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

// fileSource is a job's input as the runtime hands it to its ranks, file
// by file: each file generated, read from its part file, or sliced from the
// rows a MapReduce job supplies, straight into the rank that stores it —
// whole, as the rank's Place loads it (job.Local.Load, in memory), or block
// by block, as its Map scans it (job.Local.Scan, out of core). The
// in-process runtimes share one among all ranks; a TCP worker makes its own.
type fileSource struct {
	// spec is the ranks' spec; an InputDir job's files arrive through the
	// source, so it names no directory.
	spec    Spec
	gen     *kv.Generator
	dir     string
	records kv.Records
	plan    placement.Plan
	procs   int
	// rank is the one rank a TCP worker's source serves; -1 when the
	// source serves every rank of the job.
	rank int

	mu sync.Mutex
	// attempt is the context of the attempt whose ranks hold the source, and
	// shares its files as they are loaded: a retry makes them again.
	attempt context.Context
	shares  []*share
}

// share is one file of an in-memory attempt: made once, by the first of
// its holders to load it, and aliased by the others. The source lets go of
// it once every holder it serves has taken it.
type share struct {
	once sync.Once
	file kv.Records
	desc verify.Input
	err  error
	left atomic.Int32 // holders yet to take the file
}

// newFileSource prepares the input of spec, resolved and laid out by plan,
// for handing over to rank, or to every rank when rank is -1: the rows of
// records, split along the plan, when there are any, else spec's part files
// or generated rows.
func newFileSource(spec Spec, resolved *job.Resolved, plan placement.Plan, records kv.Records, rank int) *fileSource {
	src := &fileSource{spec: spec, gen: kv.NewGenerator(spec.Seed, resolved.KeyDist), dir: spec.InputDir,
		records: records, plan: plan, procs: parallel.Resolve(spec.Parallelism), rank: rank}
	src.spec.InputDir = ""
	return src
}

// InputSource returns how the ranks of spec's job in this process get
// their input — rows, when non-empty, split along the job's placement plan
// (a MapReduce job's Input), else generated or part files: attach(ctx,
// rank) is rank's Load or Scan for the attempt ctx cancels. rank -1 shares
// the source among every rank of the job, a rank of its own serves only it.
func InputSource(spec Spec, rows kv.Records, rank int) (attach func(ctx context.Context, rank int) job.Local, err error) {
	resolved, err := spec.Resolve(job.Local{})
	if err != nil {
		return nil, err
	}
	plan, err := resolved.Strat.Plan(spec.Rows)
	if err != nil {
		return nil, err
	}
	src := newFileSource(spec, resolved, plan, rows, rank)
	return func(ctx context.Context, rank int) job.Local {
		local, _ := src.hold(ctx, rank)
		return local
	}, nil
}

// holder is one rank's draw on a fileSource in one attempt. Of every file
// the rank is the lowest-ranked holder of, it keeps the description the
// source took as it made the file — a block before the rank sees it, a
// loaded file as it is generated or once it is read — once the file was
// handed over whole. The rank reports the descriptions
// (WorkerReport.InputFiles), so each file is described once, by the
// successful attempt, and one that no holder took whole is missing.
type holder struct {
	src       *fileSource
	rank      int
	ctx       context.Context
	shares    []*share
	described []FileInput
}

// hold returns rank's attachment for an attempt that ctx cancels — the
// source's Load in memory, its Scan out of core — and the holder that
// collects the rank's descriptions. The ranks of one attempt hold the
// source with the attempt's context; the first to hold it with another
// starts a new share table.
func (src *fileSource) hold(ctx context.Context, rank int) (job.Local, *holder) {
	h := &holder{src: src, rank: rank, ctx: ctx}
	local := job.Local{Done: ctx.Done()}
	if src.spec.MemBudget > 0 {
		local.Scan = h.scan
		return local, h
	}
	src.mu.Lock()
	if src.attempt != ctx {
		src.attempt, src.shares = ctx, make([]*share, src.plan.NumFiles())
		for i := range src.shares {
			src.shares[i] = &share{}
			src.shares[i].left.Store(int32(src.holders(i)))
		}
	}
	h.shares = src.shares
	src.mu.Unlock()
	local.Load = h.load
	return local, h
}

// holders counts the holders of file i the source serves.
func (src *fileSource) holders(i int) int {
	if src.rank >= 0 {
		return 1
	}
	return src.plan.Files[i].Size()
}

// describes reports whether the rank is file i's lowest-ranked holder.
func (h *holder) describes(i int) bool { return h.src.plan.Files[i].Min() == h.rank }

// load hands over file i whole (job.Local.Load): made by the first of its
// holders to load it and described in the same pass when the source serves
// its lowest-ranked holder.
func (h *holder) load(i int) (kv.Records, error) {
	s := h.shares[i]
	s.once.Do(func() {
		s.file, s.desc, s.err = h.src.file(h.ctx, i, h.src.rank < 0 || h.describes(i))
	})
	f, d, err := s.file, s.desc, s.err
	if s.left.Add(-1) == 0 {
		s.file = kv.Records{}
	}
	if err == nil && h.describes(i) {
		h.described = append(h.described, FileInput{File: i, Input: d})
	}
	return f, err
}

// file makes file i whole and, when describe is set, describes it.
func (src *fileSource) file(ctx context.Context, i int, describe bool) (kv.Records, verify.Input, error) {
	first, last := src.plan.FileRows(i)
	switch {
	case src.records.Len() > 0:
		f := src.records.Slice(int(first), int(last))
		if !describe {
			return f, verify.Input{}, nil
		}
		return f, verify.Describe(f), nil
	case src.dir != "":
		return readPart(src.dir, i)
	default:
		return verify.MaterializeFile(ctx, src.gen, first, last, src.procs, describe)
	}
}

// scan feeds file i to fn in blocks of at most blockRows records
// (job.Local.Scan).
func (h *holder) scan(i, blockRows int, fn func(kv.Records) error) error {
	if !h.describes(i) {
		return h.src.blocks(i, blockRows, fn)
	}
	var d verify.Input
	err := h.src.blocks(i, blockRows, func(b kv.Records) error {
		d.Rows += int64(b.Len())
		d.Checksum += b.Checksum()
		return fn(b)
	})
	if err == nil {
		h.described = append(h.described, FileInput{File: i, Input: d})
	}
	return err
}

// blocks feeds file i to fn in blocks of at most blockRows records.
func (src *fileSource) blocks(i, blockRows int, fn func(kv.Records) error) error {
	first, last := src.plan.FileRows(i)
	switch {
	case src.records.Len() > 0:
		return src.records.Slice(int(first), int(last)).ForEachBlock(blockRows, fn)
	case src.dir != "":
		return extsort.ScanFile(extsort.PartFile(src.dir, i), blockRows, fn)
	default:
		return src.gen.GenerateBlocks(first, last-first, blockRows, fn)
	}
}

// describedInput totals the input descriptions the ranks of a job laid
// out by plan reported, refusing an input of which some file was described
// twice or by no rank, or, when the input is generated, as other than the
// plan's rows. An InputDir job's part file is whatever its holder read: no
// plan counts its rows.
func describedInput(plan placement.Plan, generated bool, reports []WorkerReport) (verify.Input, error) {
	seen := make([]bool, plan.NumFiles())
	var total verify.Input
	for _, w := range reports {
		for _, f := range w.InputFiles {
			switch {
			case f.File < 0 || f.File >= len(seen):
				return verify.Input{}, fmt.Errorf("rank %d described input file %d, the plan has %d", w.Rank, f.File, len(seen))
			case seen[f.File]:
				return verify.Input{}, fmt.Errorf("input file %d was described twice", f.File)
			case generated && f.Rows != plan.FileRowCount(f.File):
				return verify.Input{}, fmt.Errorf("input file %d was described as %d rows, it has %d",
					f.File, f.Rows, plan.FileRowCount(f.File))
			}
			seen[f.File] = true
			total.Rows += f.Rows
			total.Checksum += f.Checksum
		}
	}
	for i, ok := range seen {
		if !ok {
			return verify.Input{}, fmt.Errorf("no rank described the rows of input file %d", i)
		}
	}
	return total, nil
}

// readPart reads dir's part file i and describes it from the bytes read.
func readPart(dir string, i int) (kv.Records, verify.Input, error) {
	buf, err := os.ReadFile(extsort.PartFile(dir, i))
	if err != nil {
		return kv.Records{}, verify.Input{}, fmt.Errorf("cluster: read input file: %w", err)
	}
	f, err := kv.NewRecords(buf)
	if err != nil {
		return kv.Records{}, verify.Input{}, err
	}
	return f, verify.Describe(f), nil
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

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
	// InputFiles describes the input files this rank placed and is the
	// lowest-ranked holder of, as it placed them: the job's input
	// description, one per file, when the runtime hands files over one by
	// one (over TCP; in process out of core).
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
// Every job gets its input from the supervisor, and the output is verified
// against the supervisor's description of it. An in-memory job (MemBudget
// unset): every file of the placement plan is generated once, on every
// core, and described in the same pass (verify.Materialize), or an
// InputDir job's part files are read once and described from the bytes
// read, before any rank runs; every rank aliases its files
// (job.Local.Input) instead of generating its replicas. An out-of-core job
// must never hold its input: each rank scans its files through the
// supervisor (job.Local.Scan), which generates or reads them block by
// block into the rank, and each file's lowest-ranked holder digests it
// during its scan and reports the description, so the input is read once
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
	var input *placedInput
	var source *fileSource
	var rankSpec Spec
	if spec.MemBudget == 0 {
		if input, err = placeInput(ctx, jp); err != nil {
			return nil, err
		}
		rankSpec = input.spec
	} else {
		source = newFileSource(jp.spec, jp.resolved, jp.plan)
		rankSpec = source.spec
	}
	checks := make([]*outputCheck, spec.K)
	rep, err := Supervise(ctx, rankSpec, opts, func(actx context.Context, ep transport.Endpoint, spec Spec, hooks coded.Hooks) (WorkerReport, error) {
		local := job.Local{Done: actx.Done()}
		var h *holder
		if input != nil {
			local.Input = input.take(ep.Rank())
		} else {
			local, h = source.hold(actx, ep.Rank())
		}
		// Every rank of the attempt that succeeds overwrites its own slot,
		// so only that attempt's checks survive.
		c := &outputCheck{PartitionChecker: verify.NewPartitionChecker(jp.part, ep.Rank()), keep: spec.KeepOutput}
		w, err := work(ep, spec, local, c.feed, hooks)
		checks[ep.Rank()] = c
		w.Output = c.kept
		if h != nil {
			w.InputFiles = h.described
		}
		return w, err
	})
	if err != nil {
		return nil, err
	}
	rep.Spec = spec
	var in verify.Input
	if input != nil {
		in = input.desc
	} else if in, err = describedInput(jp.plan, spec.InputDir == "", rep.Workers); err != nil {
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

// placeInput generates the input files of jp's placement plan (or reads
// an InputDir job's part files) and describes them in the same pass. A
// cancel that arrives meanwhile returns ctx's error before any rank starts.
func placeInput(ctx context.Context, jp *prepared) (*placedInput, error) {
	spec := jp.spec
	in := &placedInput{spec: spec, keep: jp.resolved.MaxAttempts > 1}
	var files []kv.Records
	var err error
	if spec.InputDir == "" {
		files, in.desc, err = verify.Materialize(ctx, kv.NewGenerator(spec.Seed, jp.resolved.KeyDist), jp.plan.Bounds)
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

// fileSource is an input the runtime hands its ranks file by file rather
// than placing it up front: each file generated, or read from its part
// file, straight into the rank that stores it — whole, as the rank's Place
// loads it (job.Local.Load, in memory), or block by block, as its Map
// scans it (job.Local.Scan, out of core). The in-process runtime shares
// one among an out-of-core job's ranks; a TCP worker makes its own.
type fileSource struct {
	// spec is the ranks' spec; an InputDir job's files arrive through the
	// source, so it names no directory.
	spec  Spec
	gen   *kv.Generator
	dir   string
	plan  placement.Plan
	procs int
}

// newFileSource prepares the input of spec, resolved and laid out by plan,
// for handing over.
func newFileSource(spec Spec, resolved *job.Resolved, plan placement.Plan) *fileSource {
	src := &fileSource{spec: spec, gen: kv.NewGenerator(spec.Seed, resolved.KeyDist), dir: spec.InputDir,
		plan: plan, procs: parallel.Resolve(spec.Parallelism)}
	src.spec.InputDir = ""
	return src
}

// holder is one rank's draw on a fileSource in one attempt. Of every file
// the rank is the lowest-ranked holder of, it digests what it hands over —
// a block before the rank sees it, a loaded file as it is generated or
// once it is read — and keeps the file's description once the file was handed over
// whole. The rank reports the descriptions (WorkerReport.InputFiles), so
// each file is described once, by the successful attempt, and one that no
// holder took whole is missing.
type holder struct {
	src       *fileSource
	rank      int
	ctx       context.Context
	described []FileInput
}

// hold returns rank's attachment for an attempt that ctx cancels — the
// source's Load in memory, its Scan out of core — and the holder that
// collects the rank's descriptions.
func (src *fileSource) hold(ctx context.Context, rank int) (job.Local, *holder) {
	h := &holder{src: src, rank: rank, ctx: ctx}
	local := job.Local{Done: ctx.Done()}
	if src.spec.MemBudget == 0 {
		local.Load = h.load
	} else {
		local.Scan = h.scan
	}
	return local, h
}

// describes reports whether the rank is file i's lowest-ranked holder.
func (h *holder) describes(i int) bool { return h.src.plan.Files[i].Min() == h.rank }

// load generates or reads file i whole (job.Local.Load).
func (h *holder) load(i int) (kv.Records, error) {
	describe := h.describes(i)
	var f kv.Records
	var d verify.Input
	var err error
	if h.src.dir != "" {
		f, d, err = readPart(h.src.dir, i)
	} else {
		first, last := h.src.plan.FileRows(i)
		f, d, err = verify.MaterializeFile(h.ctx, h.src.gen, first, last, h.src.procs, describe)
	}
	if err == nil && describe {
		h.described = append(h.described, FileInput{File: i, Input: d})
	}
	return f, err
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
	if src.dir != "" {
		return extsort.ScanFile(extsort.PartFile(src.dir, i), blockRows, fn)
	}
	first, last := src.plan.FileRows(i)
	return src.gen.GenerateBlocks(first, last-first, blockRows, fn)
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

// readInput reads the K part files of a teragen -disk directory, each once
// and on every core, and describes them from the bytes read.
func readInput(dir string, k int) ([]kv.Records, verify.Input, error) {
	files := make([]kv.Records, k)
	descs := make([]verify.Input, k)
	if err := parallel.Do(runtime.GOMAXPROCS(0), k, func(i int) error {
		var err error
		files[i], descs[i], err = readPart(dir, i)
		return err
	}); err != nil {
		return nil, verify.Input{}, err
	}
	var in verify.Input
	for _, d := range descs {
		in.Rows += d.Rows
		in.Checksum += d.Checksum
	}
	return files, in, nil
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

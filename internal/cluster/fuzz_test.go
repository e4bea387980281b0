package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"codedterasort/internal/coded"
	"codedterasort/internal/engine"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
	"codedterasort/internal/verify"
)

// FuzzJob is the runtime's one correctness claim: every job the system
// accepts sorts to the sequential oracle's answer, at every r (TeraSort is
// r = 1), under either placement, in every mode, on every deployment, and
// through recovery. A seed draws a job (drawJob); checkJob runs it and a
// twin that differs in one axis — Parallelism, shuffle schedule,
// deployment or faults — and holds both runs to four properties:
//
//   - oracle: the job validates, each rank holds exactly the rows (count
//     and multiset checksum) of its share of the whole input, split and
//     sorted without any engine (jobOracle) — byte for byte where no key
//     repeats — and kept output is sorted;
//   - twin: the two runs' outputs are byte-identical and they shuffle the
//     same bytes, except that an out-of-core ParallelShuffle job orders
//     equal keys by arrival;
//   - hygiene: no goroutine, descriptor or spill entry outlives a run, and
//     no rank writes into the input files it aliases;
//   - accounting (checkReport): chunks, spills, materialized output,
//     attempts, recovered suspects, the stage log, wire bytes and the
//     coded load.
//
// Each property is a subtest of the seed. A draw that breaks one is shrunk
// one axis at a time back to its base value, for as long as it still breaks
// that property, and printed as the body sortd's submit endpoint takes.
// `go test` runs the seed corpus, whose coverage TestJobCorpusCells checks;
// `go test -fuzz=FuzzJob` explores without bound.
func FuzzJob(f *testing.F) {
	for _, seed := range jobCorpus {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		d := drawJob(seed)
		err := checkJob(t, d)
		var v violation
		if err != nil && !errors.As(err, &v) {
			v = violation{"oracle", err}
		}
		for _, property := range jobProperties {
			t.Run(property, func(t *testing.T) {
				switch v.property {
				case "":
				case property:
					small, serr := shrinkJob(t, d, v)
					t.Fatalf("seed %d (%v): %v\nshrunk to (%v): %v\nsubmit body: %s", seed, d, err, small, serr, small.body())
				default:
					t.Skipf("not reached: the draw broke %s", v.property)
				}
			})
		}
	})
}

// jobProperties are the four properties every draw holds, each a subtest.
var jobProperties = []string{"oracle", "twin", "hygiene", "accounting"}

// A violation is a property one run of a draw broke.
type violation struct {
	property string
	err      error
}

func (v violation) Error() string { return v.property + ": " + v.err.Error() }

func broke(property, format string, args ...any) error {
	return violation{property, fmt.Errorf(format, args...)}
}

// jobDraw is one generated job: its spec, and the axes a spec cannot carry.
type jobDraw struct {
	Spec Spec
	// Deploy runs the job: "local" (RunLocal's runtime), "pool" (Pool.Run)
	// or "tcp" (a Coordinator with rejoining RunWorkers).
	Deploy string
	// WorkerProcs, when positive, is one TCP worker's Parallelism override.
	WorkerProcs int
	// InputDir writes the input as teragen -disk part files, Preset fills in
	// a sampled job's splitters, and Deadline arms a 5 s StageDeadline
	// unless a slow fault needs a tighter one.
	InputDir, Preset, Deadline bool
	// Twin is the axis the twin run changes: "procs" (Parallelism),
	// "schedule" (ParallelShuffle), "deploy" or "faults".
	Twin string
}

func (d jobDraw) String() string {
	return fmt.Sprintf("deploy=%s worker-procs=%d input-dir=%v preset=%v twin=%s",
		d.Deploy, d.WorkerProcs, d.InputDir, d.Preset, d.Twin)
}

// body is d's job as sortd's submit endpoint takes it.
func (d jobDraw) body() string {
	p, _ := json.Marshal(struct {
		Tenant string `json:"tenant"`
		Spec   Spec   `json:"spec"`
	}{"fuzz", d.Spec})
	return string(p)
}

// Fault delays: a slow rank stalls past its deadline by 150 ms, and a
// canceled attempt waits its stall out, so a slow draw costs 400 ms.
const (
	slowDeadline = 250 * time.Millisecond
	slowDelay    = 400 * time.Millisecond
)

var jobDists = []string{"", "skewed", "zipf", "sorted", "nearsorted", "dupheavy", "varprefix"}

// drawJob draws the valid job of a seed.
func drawJob(seed uint64) jobDraw {
	rng := rand.New(rand.NewPCG(seed, 36))
	one := func(xs ...int) int { return xs[rng.IntN(len(xs))] }
	coin := func(p float64) bool { return rng.Float64() < p }
	for {
		d := jobDraw{Deploy: []string{"local", "local", "pool", "tcp"}[rng.IntN(4)],
			Twin: []string{"procs", "schedule", "deploy", "faults"}[rng.IntN(4)]}
		s := &d.Spec
		*s = Spec{Algorithm: AlgTeraSort, K: one(1, 2, 3, 4, 4, 5, 6, 8), Rows: 100 + rng.Int64N(2400),
			Seed: rng.Uint64N(1000), DistName: jobDists[rng.IntN(len(jobDists))],
			Parallelism: one(0, 0, 1, 2, 4), ParallelShuffle: coin(0.3), KeepOutput: coin(0.3)}
		switch {
		case coin(0.1):
			s.Rows = rng.Int64N(14)
		case coin(0.05):
			s.Rows = 24000
		}
		if coin(0.6) {
			s.Algorithm, s.R = AlgCoded, 1+rng.IntN(s.K)
			if coin(0.3) {
				s.Placement = "resolvable"
			}
		}
		switch rng.IntN(3) {
		case 1:
			s.ChunkRows, s.Window = one(33, 64, 300, 512, 1<<20), one(0, 1, 2, 4, 16)
		case 2:
			s.MemBudget = int64(one(1, 16<<10, 64<<20, max(int(s.Rows)*kv.RecordSize/8, 1)))
			s.KeepOutput = coin(0.2)
			if coin(0.5) {
				// Out of core, every spool buffers ChunkRows records whatever
				// the budget, so 1<<20 would allocate 100 MB a spool.
				s.ChunkRows, s.Window = one(33, 64, 300, 512), one(0, 1, 2, 4, 16)
			}
		}
		if coin(0.45) {
			s.Partitioning, d.Preset = "sample", coin(0.3)
			if coin(0.3) {
				s.SampleSize = one(7, 70)
			}
		}
		d.InputDir = s.Algorithm == AlgTeraSort && coin(0.15)
		if coin(0.1) {
			s.RateMbps = float64(one(1000, 4000))
			if coin(0.5) {
				s.StragglerFactor, s.StragglerRank = []float64{0.5, 3}[rng.IntN(2)], rng.IntN(s.K)
			}
		}
		if d.Deploy == "tcp" && coin(0.5) {
			d.WorkerProcs = one(1, 3)
		}
		if cols := jobColumns(*s); coin(0.3) && len(cols) > 0 {
			// A second fault strikes another rank at a later column.
			col, rank := rng.IntN(len(cols)), rng.IntN(s.K)
			for n := 1 + rng.IntN(2); n > 0 && col < len(cols); n-- {
				f := FaultSpec{Rank: rank, Stage: cols[col].String(), Kind: job.FaultKill}
				if coin(0.25) {
					f.Kind, f.Delay = job.FaultSlow, slowDelay
				}
				s.Faults = append(s.Faults, f)
				col, rank = col+1+rng.IntN(len(cols)-col), (rank+1)%s.K
			}
		}
		d.Deadline = coin(0.3)
		d.settle()
		if d.valid() {
			return d
		}
	}
}

// settle derives the recovery knobs: one attempt per fault and one more;
// the 5 s deadline a Deadline draw arms, or the tighter one a slow fault
// must miss, with heartbeats frequent enough that no healthy TCP worker
// falls silent for as long.
func (d *jobDraw) settle() {
	s := &d.Spec
	s.MaxAttempts, s.StageDeadline, s.Heartbeat = 0, 0, 0
	if len(s.Faults) > 0 {
		s.MaxAttempts = len(s.Faults) + 1
	}
	if d.Deadline {
		s.StageDeadline = 5 * time.Second
	}
	for _, f := range s.Faults {
		if f.Kind == job.FaultSlow {
			s.StageDeadline, s.Heartbeat = slowDeadline, 20*time.Millisecond
		}
	}
}

// valid reports whether d is a job the harness can judge: the spec
// validates, and each fault strikes alone — on its own rank, at a column of
// the schedule after the last fault's, so the attempt it strikes is
// canceled before the next fault's stage. A slow rank misses a deadline
// its peers set, and the deadline must not catch healthy ranks, so a slow
// fault rides only small, unshaped jobs of two ranks or more.
func (d jobDraw) valid() bool {
	s := d.Spec
	if s.Validate() != nil || (d.Deploy == "tcp" && s.K > 6) || (d.InputDir && s.Algorithm != AlgTeraSort) ||
		(d.Preset && !s.Sampled()) || (d.WorkerProcs > 0 && d.Deploy != "tcp") {
		return false
	}
	cols, last, ranks := jobColumns(s), -1, map[int]bool{}
	for _, f := range s.Faults {
		col := slices.IndexFunc(cols, func(c stats.Stage) bool { return c.String() == f.Stage })
		if col <= last || ranks[f.Rank] || (f.Kind == job.FaultSlow && (s.K < 2 || s.Rows > 3000 || s.RateMbps > 0)) {
			return false
		}
		last, ranks[f.Rank] = col, true
	}
	return true
}

// jobColumns is the schedule of a spec's timed stages (nil for an invalid spec).
func jobColumns(s Spec) []stats.Stage {
	resolved, err := s.Resolve(job.Local{})
	if err != nil {
		return nil
	}
	return coded.Columns(resolved)
}

// twin is the run d is compared with: d with its Twin axis changed.
func (d jobDraw) twin() jobDraw {
	tw := d
	s := &tw.Spec
	switch d.Twin {
	case "procs":
		s.Parallelism, tw.WorkerProcs = 1, 0
		if d.Spec.Parallelism == 1 {
			s.Parallelism = 4
		}
	case "schedule":
		s.ParallelShuffle = !s.ParallelShuffle
	case "deploy":
		tw.Deploy, tw.WorkerProcs = map[string]string{"local": "tcp", "pool": "local", "tcp": "pool"}[d.Deploy], 0
		if tw.Deploy == "tcp" && s.K > 6 {
			tw.Deploy = "pool"
		}
	default:
		if len(s.Faults) > 0 {
			s.Faults = nil
		} else if cols := jobColumns(*s); len(cols) > 0 {
			s.Faults = []FaultSpec{{Rank: int(s.Seed) % s.K, Stage: cols[int(s.Seed)%len(cols)].String(), Kind: job.FaultKill}}
		}
		tw.settle()
	}
	return tw
}

// jobRun is one run's evidence: the report; each rank's output digest —
// the SHA-256 of its sorted partition in order — or nil where the
// deployment does not see the output; and the input files a rank wrote
// into, where the ranks alias them (an in-memory job run locally).
type jobRun struct {
	rep     *JobReport
	digests [][]byte
	written []int
}

// checkJob runs d and its twin and returns the first property either
// breaks.
func checkJob(t *testing.T, d jobDraw) error {
	spec, input, err := d.materialize(t)
	if err != nil {
		return broke("oracle", "preparing the input: %w", err)
	}
	want, err := jobOracle(spec, input)
	if err != nil {
		return broke("oracle", "%w", err)
	}
	var runs []jobRun
	for i, run := range []jobDraw{d, d.twin()} {
		s := spec
		s.Parallelism, s.ParallelShuffle = run.Spec.Parallelism, run.Spec.ParallelShuffle
		s.Faults, s.MaxAttempts, s.StageDeadline, s.Heartbeat =
			run.Spec.Faults, run.Spec.MaxAttempts, run.Spec.StageDeadline, run.Spec.Heartbeat
		leaks := snapshotLeaks()
		r, err := runJob(t, run.Deploy, s, run.WorkerProcs)
		if err != nil {
			err = broke("oracle", "%w", err)
		} else if err = leaks.check(s.SpillDir); err != nil {
			err = broke("hygiene", "%w", err)
		} else if len(r.written) > 0 {
			err = broke("hygiene", "ranks wrote into input files %v", r.written)
		} else {
			err = checkReport(s, run.Deploy != "tcp", r, want)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", []string{"job", "twin"}[i], err)
		}
		runs = append(runs, r)
	}
	a, b := runs[0], runs[1]
	if a.rep.ShuffleLoadBytes != b.rep.ShuffleLoadBytes {
		return broke("twin", "shuffle load %d bytes, twin %d", a.rep.ShuffleLoadBytes, b.rep.ShuffleLoadBytes)
	}
	if spec.MemBudget > 0 && (spec.ParallelShuffle || d.Twin == "schedule") && want.digests == nil {
		return nil // the spill merge orders equal keys by arrival
	}
	for r := range spec.K {
		if a.digests != nil && b.digests != nil && !bytes.Equal(a.digests[r], b.digests[r]) {
			return broke("twin", "rank %d output differs", r)
		}
	}
	return nil
}

// materialize prepares d's job: the input it sorts — written as part files
// for an InputDir job, whose Seed then names other rows, so verification
// must read the files — its preset splitters, and a fresh spill directory.
func (d jobDraw) materialize(t *testing.T) (Spec, kv.Records, error) {
	spec := d.Spec
	spec.SpillDir = t.TempDir()
	dist, err := kv.ParseDistribution(spec.DistName)
	if err != nil {
		return spec, kv.Records{}, err
	}
	input := kv.NewGenerator(spec.Seed, dist).Generate(0, spec.Rows)
	if d.InputDir {
		spec.InputDir, spec.Seed = writeDiskInput(t, input, spec.K), spec.Seed+1
	}
	if d.Preset {
		spec.Splitters, err = spec.ExpectedSplitters()
	}
	return spec, input, err
}

// jobAnswer is what each rank of a job must output: its share of the input
// (rows and multiset checksum) and, when no key repeats, the digest of that
// share sorted — nil digests mean the engine orders equal keys.
type jobAnswer struct {
	parts   []verify.Input
	digests [][]byte
}

// jobOracle answers a job without running an engine: the whole input split
// by the partitioner the spec names — uniform, or the splitters of its
// deterministic sample — and each share sorted by the standard library.
func jobOracle(spec Spec, input kv.Records) (jobAnswer, error) {
	var p partition.Partitioner = partition.NewUniform(spec.K)
	if spec.Sampled() {
		bounds, err := spec.ExpectedSplitters()
		if err != nil {
			return jobAnswer{}, err
		}
		if p, err = partition.NewSplitters(bounds); err != nil {
			return jobAnswer{}, err
		}
	}
	var want jobAnswer
	ties := false
	for _, part := range partition.Split(p, input) {
		want.parts = append(want.parts, verify.Describe(part))
		recs := make([][]byte, part.Len())
		for i := range recs {
			recs[i] = part.Record(i)
		}
		slices.SortFunc(recs, func(a, b []byte) int { return bytes.Compare(a[:kv.KeySize], b[:kv.KeySize]) })
		h := sha256.New()
		for i, rec := range recs {
			ties = ties || (i > 0 && bytes.Equal(recs[i-1][:kv.KeySize], rec[:kv.KeySize]))
			h.Write(rec)
		}
		want.digests = append(want.digests, h.Sum(nil))
	}
	if ties {
		want.digests = nil
	}
	return want, nil
}

// checkReport holds one run to the oracle and to the accounting
// properties; inProcess runs hand back the output KeepOutput keeps.
func checkReport(spec Spec, inProcess bool, run jobRun, want jobAnswer) error {
	rep := run.rep
	if !rep.Validated || len(rep.Workers) != spec.K {
		return broke("oracle", "validated=%v with %d reports", rep.Validated, len(rep.Workers))
	}
	budgeted := spec.MemBudget > 0
	var most int64
	for r, w := range rep.Workers {
		if got := (verify.Input{Rows: w.OutputRows, Checksum: w.OutputChecksum}); got != want.parts[r] {
			return broke("oracle", "rank %d holds %+v, want %+v", r, got, want.parts[r])
		}
		if want.digests != nil && run.digests != nil && !bytes.Equal(run.digests[r], want.digests[r]) {
			return broke("oracle", "rank %d output is not its share sorted", r)
		}
		if spec.KeepOutput && inProcess && (!w.Output.IsSorted() || verify.Describe(w.Output) != want.parts[r]) {
			return broke("oracle", "rank %d kept output unsorted or not its partition", r)
		}
		if budgeted && !spec.KeepOutput && w.Output.Len() > 0 {
			return broke("accounting", "budgeted rank %d materialized %d rows", r, w.Output.Len())
		}
		most = max(most, want.parts[r].Rows)
	}
	if streaming := spec.ChunkRows > 0 || budgeted; (rep.ChunksShuffled > 0) != (streaming && rep.ShuffleLoadBytes > 0) {
		return broke("accounting", "%d chunks shuffled (chunk rows %d, budget %d)", rep.ChunksShuffled, spec.ChunkRows, spec.MemBudget)
	}
	// A rank spills once its partition fills the sorter's half of the budget.
	if spill := budgeted && most*kv.RecordSize >= max(spec.MemBudget/2, 1); (rep.SpilledRuns > 0) != spill {
		return broke("accounting", "%d runs spilled (budget %d, largest partition %d rows)", rep.SpilledRuns, spec.MemBudget, most)
	}
	if rep.Attempts != 1+len(spec.Faults) || len(rep.Recovered) != len(spec.Faults) {
		return broke("accounting", "%d attempts, recovered %v, for %d faults", rep.Attempts, rep.Recovered, len(spec.Faults))
	}
	for i, f := range spec.Faults {
		st, _ := stats.ParseStage(f.Stage)
		want := Suspect{Rank: f.Rank, Stage: st, Attempt: i + 1,
			Reason: map[string]string{job.FaultKill: "died", job.FaultSlow: "missed deadline"}[f.Kind]}
		if rep.Recovered[i] != want {
			return broke("accounting", "suspect %v, want %v", rep.Recovered[i], want)
		}
	}
	// The last attempt logs each rank's schedule once, in order, without
	// error, and the records sum to the rank's stage times.
	cols := jobColumns(spec)
	logged := make([]stats.Breakdown, spec.K)
	next := make([]int, spec.K)
	for i, rec := range rep.Stages {
		if i > 0 && rec.At < rep.Stages[i-1].At {
			return broke("accounting", "stage log out of completion order at record %d", i)
		}
		if rec.Attempt != rep.Attempts {
			continue
		}
		if rec.Err != "" || next[rec.Node] == len(cols) || rec.Stage != cols[next[rec.Node]] {
			return broke("accounting", "stage log: rank %d logged %v (%q) off its schedule %v", rec.Node, rec.Stage, rec.Err, cols)
		}
		next[rec.Node]++
		logged[rec.Node][rec.Stage] += rec.Elapsed
	}
	for r, w := range rep.Workers {
		if next[r] != len(cols) || w.Times != logged[r] {
			return broke("accounting", "stage log: rank %d logged %d stages summing to %v, reported %v", r, next[r], logged[r], w.Times)
		}
	}
	// A packet crosses every link of its group's relay chain once.
	links := int64(spec.Redundancy())
	if spec.Placement == "resolvable" {
		links--
	}
	if rep.WireBytes != links*rep.ShuffleLoadBytes {
		return broke("accounting", "wire %d bytes, want %d x load %d", rep.WireBytes, links, rep.ShuffleLoadBytes)
	}
	for _, w := range rep.Workers {
		if links == 1 && w.WireBytes != w.SentBytes {
			return broke("accounting", "rank %d sent %d wire bytes for a load of %d with nothing to relay", w.Rank, w.WireBytes, w.SentBytes)
		}
	}
	for _, col := range jobColumns(spec) {
		if rep.Times[col] <= 0 {
			return broke("accounting", "no time charged to %v", col)
		}
	}
	if spec.Algorithm == AlgCoded && spec.DistName == "" && !spec.Sampled() && spec.Rows >= 24000 {
		k, r, n := float64(spec.K), float64(spec.R), float64(spec.Rows*kv.RecordSize)
		ideal := (1 - r/k) / r * n // L(r)·N of the clique scheme
		if spec.Placement == "resolvable" {
			ideal = (1 - r/k) / (r - 1) * n
		}
		if got := float64(rep.ShuffleLoadBytes); got < 0.9*ideal || got > 1.25*ideal {
			return broke("accounting", "shuffle load %.0f bytes, L(r)·N = %.0f", got, ideal)
		}
	}
	return nil
}

// runJob runs spec on a deployment; workerProcs is one TCP worker's
// Parallelism override.
func runJob(t *testing.T, deploy string, spec Spec, workerProcs int) (jobRun, error) {
	out := &outputDigests{sums: make([][]byte, spec.K)}
	var rep *JobReport
	var err error
	var written []int
	switch deploy {
	case "local":
		rep, err = runLocal(context.Background(), spec, Options{}, out.work)
		for i, sum := range fileDigests(out.input) {
			if !bytes.Equal(sum, out.before[i]) {
				written = append(written, i)
			}
		}
	case "pool":
		p := NewPool(max(spec.K-1, 1)) // multiplexes two ranks on an executor
		defer p.Close()
		if rep, err = p.Run(context.Background(), spec, Options{}); err != nil || !spec.KeepOutput {
			return jobRun{rep, nil, nil}, err
		}
		for r, w := range rep.Workers {
			sum := sha256.Sum256(w.Output.Bytes())
			out.sums[r] = sum[:]
		}
	default:
		rep, err = rejoinTCP(t, spec, out.work, WorkerOptions{Parallelism: workerProcs})
	}
	return jobRun{rep, out.sums, written}, err
}

// outputDigests records each rank's output digest, whether the rank returns
// its partition or streams it into a sink, and the digests of the input
// files the ranks alias before any of them runs.
type outputDigests struct {
	mu    sync.Mutex
	sums  [][]byte
	once  sync.Once
	input []kv.Records
	// before holds the input's digests: the first rank in takes them while
	// the others wait in once.Do, so no rank has run yet.
	before [][]byte
}

func (o *outputDigests) work(ep transport.Endpoint, spec Spec, local job.Local, sink func(kv.Records) error, hooks engine.Hooks) (WorkerReport, error) {
	if local.Input != nil {
		o.once.Do(func() { o.input, o.before = local.Input, fileDigests(local.Input) })
	}
	h := sha256.New()
	if feed := sink; sink != nil {
		sink = func(b kv.Records) error {
			h.Write(b.Bytes())
			return feed(b)
		}
	}
	w, err := runWorker(ep, spec, local, sink, hooks)
	if err == nil {
		h.Write(w.Output.Bytes())
		o.mu.Lock()
		o.sums[ep.Rank()] = h.Sum(nil)
		o.mu.Unlock()
	}
	return w, err
}

// fileDigests returns the SHA-256 of every file.
func fileDigests(files []kv.Records) [][]byte {
	var out [][]byte
	for _, f := range files {
		sum := sha256.Sum256(f.Bytes())
		out = append(out, sum[:])
	}
	return out
}

// shrinkAxes each reset one axis of a draw to its base value: no fault, a
// clean local TeraSort of 1 000 uniform rows at K = 4, monolithic, serial,
// on all cores.
var shrinkAxes = []func(*jobDraw){
	func(d *jobDraw) { d.Spec.Faults = d.Spec.Faults[:min(len(d.Spec.Faults), 1)] },
	func(d *jobDraw) { d.Spec.Faults = nil },
	func(d *jobDraw) { d.Deploy, d.WorkerProcs = "local", 0 },
	func(d *jobDraw) { d.Twin = "procs" },
	func(d *jobDraw) { d.Spec.RateMbps, d.Spec.StragglerFactor, d.Spec.StragglerRank = 0, 0, 0 },
	func(d *jobDraw) { d.InputDir = false },
	func(d *jobDraw) { d.Preset = false },
	func(d *jobDraw) { d.Spec.Partitioning, d.Spec.SampleSize, d.Preset = "", 0, false },
	func(d *jobDraw) { d.Spec.DistName = "" },
	func(d *jobDraw) { d.Spec.MemBudget = 0 },
	func(d *jobDraw) { d.Spec.ChunkRows, d.Spec.Window = 0, 0 },
	func(d *jobDraw) { d.Spec.Window = 0 },
	func(d *jobDraw) { d.Spec.ParallelShuffle = false },
	func(d *jobDraw) { d.Spec.Parallelism = 0 },
	func(d *jobDraw) { d.Spec.KeepOutput = false },
	func(d *jobDraw) { d.Deadline = false },
	func(d *jobDraw) { d.Spec.Placement = "" },
	func(d *jobDraw) { d.Spec.R = min(d.Spec.R, 1) },
	func(d *jobDraw) { d.Spec.Algorithm, d.Spec.R = AlgTeraSort, 0 },
	func(d *jobDraw) { d.Spec.K = 4 },
	func(d *jobDraw) { d.Spec.Rows = 1000 },
}

// shrinkJob resets d's axes one at a time, keeping each reset under which
// the job still breaks the property it broke, until no reset is kept; it
// returns the smallest such draw and its failure.
func shrinkJob(t *testing.T, d jobDraw, broken violation) (jobDraw, error) {
	var failure error = broken
	for kept := true; kept; {
		kept = false
		for _, reset := range shrinkAxes {
			c := d
			reset(&c)
			c.settle()
			if reflect.DeepEqual(c, d) || !c.valid() {
				continue
			}
			var v violation
			if err := checkJob(t, c); errors.As(err, &v) && v.property == broken.property {
				d, failure, kept = c, err, true
			}
		}
	}
	return d, failure
}

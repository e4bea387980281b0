// Package coded is the sort engine: the paper's CodedTeraSort (Section IV)
// for any redundancy r, of which conventional TeraSort (Section III) is the
// r = 1 endpoint. Every input file is placed on r nodes; each node maps its
// files, the nodes of every multicast group exchange one coded packet each,
// and each node decodes what it is missing and sorts its partition:
//
//  1. CodeGen — establish per-group communication state (the MPI_Comm_split
//     equivalent; its cost grows with the group count — the scaling
//     bottleneck Section V-C identifies, C(K,r+1) under the clique scheme
//     and q^r - q^(r-1) under resolvable designs).
//  2. Place — load the files stored on this node from the runtime
//     (job.Local.Load; untimed, like the coordinator's disk placement it
//     stands in for). Every runtime hands a rank its files one by one: in
//     process a file is made once and its holders alias it, a TCP worker
//     makes its own. The engine generates and reads nothing itself: Run
//     refuses a job with no source, or one naming an InputDir. In the
//     in-memory modes a file lives until Reduce has gathered from it; no
//     stage writes it.
//  3. Map — hash every stored file, keeping only the relevant intermediate
//     values (I^k_S and {I^i_S : i not in S}, Fig 5) as references: the
//     ascending rows of the file each one holds. No record is copied.
//  4. Multicast Shuffling — serial multicast, one root at a time, each
//     coded packet E_{M,k} broadcast to the other members of its group
//     (Fig 9) by relay down the group's chain, from the root through
//     descending ranks: the root sends it once and every member forwards
//     it to the next. The member just above the root is the tail, so the
//     next root only receives its predecessor's packets and takes the wire
//     on a free link. Under a bandwidth cap a packet leaves in
//     record-aligned segments of about a millisecond of line time, each
//     its own relay, so a member forwards one segment while the root sends
//     the next. Each node encodes its packets (Algorithm 1, gathering each
//     record from the file into the packet) segment by segment in send
//     order, while earlier roots hold the wire and, on the root, just ahead
//     of the segment on the wire: a segment leaves as soon as it is built,
//     and the sender builds one itself rather than wait for an encoder that
//     has not reached it. A node takes each root's packets in that root's
//     own receiver, and each segment is decoded as it arrives — known
//     segments cancelled to recover the needed intermediate value
//     (Algorithm 2), in the received buffer — and handed to the node's
//     reducer as it comes. The receivers all run at once, whether the
//     roots take turns or ParallelShuffle lets every root send at once.
//  5. Reduce — locally sort partition k: order references to the records
//     where they lie, in the files and the decoded packets, and gather each
//     one once into the output. The reducer starts with the Shuffle, owns
//     the pieces it is handed, and finishes its work under the wire: it
//     orders each batch of arrived shares as a sorted run, merges its
//     newest runs as they come and, now and then, gathers what it holds
//     into one sorted buffer of its own, letting go of the pieces that
//     buffer replaces; once the last share is in, only a merge of a few
//     runs into the output is left.
//
// What changes with the group size: a group of two members (clique r = 1,
// resolvable r = 2) has nothing to code. Its "multicast" is one unicast, a
// packet is the lone contributing segment's frame and decoding opens the
// received frame in place (internal/codec), there is no communicator to
// build so the CodeGen stage is omitted, and no intermediate value is XOR
// side information, so the out-of-core mode spools the remote-bound ones to
// disk instead of holding them. The engine tests only that property — never
// an algorithm name or r itself.
//
// A rank's schedule is a plain list of stages, each charged to a breakdown
// column (stats.Stage); worker.schedule writes out one list per execution
// mode — monolithic, chunked or spill, picked by one switch on the job's
// knobs — and worker.run walks it: stage timing, the Hooks, barriers, fault
// injection and the run's cleanups live there (run.go). The
// placement/coding scheme is pluggable (job.Spec.Placement) through
// placement.Strategy.
package coded

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"codedterasort/internal/codec"
	"codedterasort/internal/extsort"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/parallel"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
)

// Tag stage namespaces of the engine's traffic.
const (
	tagCodeGen   uint8 = 0x20
	tagMulticast uint8 = 0x21
	tagToken     uint8 = 0x22
	tagBarrier   uint8 = 0x23
	tagChunkAck  uint8 = 0x24
)

// reduceBlockRows is the block an in-memory Reduce gathers its output into
// and hands an OutputSink: 400 KB, so the sink reads each block while it is
// still in cache.
const reduceBlockRows = 1 << 12

// groupTag builds the unique tag of group-scoped traffic: the group's
// strategy-scoped ID (colex rank under the clique scheme, tuple index under
// resolvable designs; strategy validation caps it well inside 48 bits) plus
// the root's rank within the group.
func groupTag(stage uint8, groupID int64, root int) transport.Tag {
	return transport.Tag(uint64(stage)<<56 | uint64(root)<<48 | uint64(groupID))
}

// Config is one sort run: the job description every worker must hold
// identically (the coordinator distributes it in the cluster runtime) plus
// what cannot cross a wire.
type Config struct {
	// Spec is the job description; see job.Spec for every knob. Run
	// resolves it (job.Spec.Resolve), so an invalid one fails before any
	// traffic flows.
	job.Spec
	// Local attaches the input (Load or Scan) and an explicit partitioner.
	job.Local
	// Transform, when non-nil, rewrites each input record into zero or
	// more intermediate records during the Map stage — the "Beyond
	// Sorting" hook (paper Section VI) behind internal/mapreduce: the
	// shuffle moves whatever records the transform emits, so a Grep that
	// emits only its matches shuffles only (coded) matches. Each emitted
	// record must be kv.RecordSize bytes. The function must be pure and
	// identical on all workers, because every replica of a file must
	// produce identical intermediate values for the XOR cancellation to
	// hold.
	Transform func(record []byte, emit func([]byte))
	// OutputSink, when non-nil, receives the node's sorted partition as
	// ascending record blocks during Reduce instead of it being
	// materialized in Result.Output: blocks of reduceBlockRows records in
	// memory, of ChunkRows out of core. The block passed to the sink is
	// reused; the sink must not retain it. An error from the sink fails
	// the rank's Reduce.
	OutputSink func(kv.Records) error
	// Hooks observes each timed stage of the run — the instrumentation API
	// the cluster runtime uses for its stage log. It sees exactly the
	// elapsed times Summary.Times sums.
	Hooks Hooks
}

// Summary is what a worker reports about its run, everything but the
// records: the block coded.Result, cluster.WorkerReport and the TCP report
// frame share, so a report crosses each layer by assignment. The JSON keys
// are the report frame's.
type Summary struct {
	// Times is the node's stage breakdown (CodeGen, Map, Shuffle,
	// Reduce), as worker.run charged it. Encode and Decode run inside the
	// Shuffle, so Pack/Encode and Unpack/Decode stay zero.
	Times stats.Breakdown `json:"times"`
	// OutputRows counts the sorted partition's records in every mode,
	// including sink-streamed budget runs where Output is empty.
	// OutputChecksum is its kv order-independent multiset digest, which the
	// engine does not take: the runtime that verifies the partition fills it
	// in from its checker's summary (cluster: in process and on TCP workers
	// alike), so each output is digested once.
	OutputRows     int64  `json:"output_rows"`
	OutputChecksum uint64 `json:"output_checksum"`
	// SentBytes counts the shuffle payload bytes this node sent, each
	// packet counted once however many members receive it — the paper's
	// communication-load metric, under which coding wins by a factor r. In
	// pipelined mode this includes the per-chunk framing overhead (one
	// chunk header and one inner frame header per chunk instead of one
	// frame header per packet).
	SentBytes int64 `json:"sent_payload_bytes"`
	// SentOps counts the packets (chunk packets when pipelining) this node
	// sent; at r = 1 each is a unicast.
	SentOps int64 `json:"multicast_ops"`
	// ChunksSent and ChunksReceived count pipelined chunk packets this
	// node sent and received (zero when ChunkRows is unset).
	ChunksSent     int64 `json:"chunks_sent,omitempty"`
	ChunksReceived int64 `json:"chunks_received,omitempty"`
	// SpilledRuns counts the sorted runs this worker spilled to disk
	// (zero when MemBudget is unset or everything fit in memory).
	SpilledRuns int64 `json:"spilled_runs,omitempty"`
	// Spill accounts this worker's spill volume — runs plus shuffle
	// spools — as raw record bytes vs framed on-disk bytes (zero without
	// MemBudget).
	Spill stats.SpillStats `json:"spill,omitzero"`
	// MergeOVCDecided and MergeFullCompares are the final merge's
	// loser-tree match counters: matches decided by cached offset-value
	// codes alone vs matches that compared key bytes.
	MergeOVCDecided   int64 `json:"merge_ovc_decided,omitempty"`
	MergeFullCompares int64 `json:"merge_full_compares,omitempty"`
	// SplitterBounds are the boundary keys this worker partitioned with
	// under sampled partitioning (derived from the input or preset via
	// Spec.Splitters); nil under uniform partitioning. Every worker must
	// report the same bounds — the coordinator cross-checks.
	SplitterBounds [][]byte `json:"splitter_bounds,omitempty"`
}

// Result is one worker's output.
type Result struct {
	Summary
	// Output is the node's fully sorted partition. It stays empty when
	// Config.OutputSink is set (the partition streamed to the sink).
	Output kv.Records
	// Groups is the number of multicast groups this node belongs to:
	// C(K-1, r) under the clique scheme (K-1 peers at r = 1),
	// q^(r-1) - q^(r-2) under a resolvable design.
	Groups int
}

// Run executes the sort worker for ep.Rank() and blocks until this node's
// part of the job completes. Every rank of the endpoint's world must call
// Run concurrently with an identical configuration. Stages are timed by
// the wall clock.
func Run(ep transport.Endpoint, cfg Config) (Result, error) {
	w, err := newWorker(ep, cfg)
	if err != nil {
		return Result{}, err
	}
	name, stages := w.schedule()
	if err := w.run(stats.NewWallClock(), name, stages); err != nil {
		return Result{}, err
	}
	return w.result, nil
}

type worker struct {
	cfg   Config        // the process-local hooks
	spec  *job.Resolved // cfg.Spec and cfg.Local, validated and defaulted
	ep    transport.Endpoint
	rank  int
	procs int                   // the resolved Parallelism of the compute hot paths
	part  partition.Partitioner // resolved by config or derived from the input

	plan     placement.Plan
	stored   []int // indices of the files placed on this node, ascending
	myGroups []placement.Group
	groupIdx map[int64]int // position in myGroups by strategy-scoped group ID
	// coding is set when the strategy's groups have more than two members.
	// Otherwise every remote-bound IV is sent once, whole, to one peer:
	// there is no multicast communicator to build and no IV is XOR side
	// information.
	coding bool

	// files are the stored input files, materialized by Place in the
	// in-memory modes. Map hands each one over to the views it keeps.
	files map[int]kv.Records
	// store holds the IVs kept after Map: {I^q_S : rank in S, q == rank or
	// q not in S}. The in-memory Map keeps views of the files' rows
	// (codec.ViewMap), which keep the files alive until Reduce lets go of
	// the store; the out-of-core Map copies its side information out of
	// transient blocks (codec.IVMap).
	store codec.IVStore
	// spools[gi] holds the IV this node sends in group myGroups[gi] when the
	// out-of-core Map spooled it to disk (no coding); spoolBlocks are
	// the finished spools' block counts.
	spools      []*extsort.Spool
	spoolBlocks []int64
	// remote is the chunked Shuffle's remote share of partition `rank`:
	// the non-empty pieces of this node's needed IVs, one per chunk, in
	// arrival order, each where it arrived (see keep). The monolithic
	// Shuffle hands its pieces to the reducer instead.
	remote []kv.View
	// reducer orders partition `rank` in the in-memory modes, from the
	// Shuffle on in monolithic mode, at Reduce in chunked mode (see
	// reduce.go).
	reducer *reducer
	// sorter is the out-of-core modes' spill sorter (see spillSorter);
	// sorterMu serializes the receivers' appends and its removal.
	sorter   *extsort.Sorter
	sorterMu sync.Mutex
	// cleanups release the run's resources when it ends, last first.
	cleanups []func()
	// chunksReceived counts consumed inbound chunks across the concurrent
	// receivers; the run reads it once into the result.
	chunksReceived atomic.Int64
	result         Result
}

// newWorker resolves the job against the endpoint's world and derives
// everything the schedule depends on: the placement plan, this node's files
// and groups, the group size, and a sampled job's splitters when none are
// preset.
func newWorker(ep transport.Endpoint, cfg Config) (*worker, error) {
	spec, err := cfg.Resolve(cfg.Local)
	if err != nil {
		return nil, err
	}
	switch {
	case spec.InputDir != "":
		// The engine reads no directory: the runtime reads the part files
		// and supplies them.
		return nil, fmt.Errorf("coded: input dir %q: the runtime must supply its part files", spec.InputDir)
	case spec.MemBudget == 0 && spec.Load == nil, spec.MemBudget > 0 && spec.Scan == nil:
		return nil, fmt.Errorf("coded: no input: the runtime must supply Load in memory, Scan out of core")
	}
	if ep.Size() != spec.K {
		return nil, fmt.Errorf("coded: endpoint world %d != K %d", ep.Size(), spec.K)
	}
	plan, err := spec.Strat.Plan(spec.Rows)
	if err != nil {
		return nil, err
	}
	rank := ep.Rank()
	w := &worker{cfg: cfg, spec: spec, ep: ep, rank: rank, procs: parallel.Resolve(spec.Parallelism),
		part: spec.Part, plan: plan, stored: plan.FilesOn(rank), myGroups: spec.Strat.GroupsOf(rank), coding: coding(spec.Strat)}
	w.groupIdx = make(map[int64]int, len(w.myGroups))
	for i, g := range w.myGroups {
		w.groupIdx[g.ID] = i
	}
	w.result.Groups = len(w.myGroups)
	if w.part == nil {
		// Sampled partitioning without preset splitters: every rank derives
		// the same splitters from the spec's generated rows, through its own
		// Map hooks, with no traffic. The runtimes preset them.
		bounds, err := spec.DeriveSplitters(nil, w.mapRecords)
		if err != nil {
			return nil, err
		}
		if w.part, err = partition.NewSplitters(bounds); err != nil {
			return nil, fmt.Errorf("coded: sampled splitters: %w", err)
		}
	}
	return w, nil
}

// coding reports whether strat's groups have more than two members. Group
// size is uniform within a strategy, so every rank reads the same value and
// lists the same schedule.
func coding(strat placement.Strategy) (coding bool) {
	strat.EachGroup(func(g placement.Group) bool {
		coding = len(g.Members) > 2
		return false
	})
	return coding
}

// Columns lists the breakdown columns every rank of spec's job runs, in
// schedule order: the timed stages of worker.schedule. The supervisors name
// the stage a silent or failed rank is stuck at by it.
func Columns(spec *job.Resolved) []stats.Stage {
	_, stages := (&worker{spec: spec, coding: coding(spec.Strat)}).schedule()
	var cols []stats.Stage
	for _, s := range stages {
		if !s.untimed {
			cols = append(cols, s.column)
		}
	}
	return cols
}

// schedule names and lists this rank's stages. It is the one place the
// execution mode is decided: MemBudget selects the out-of-core schedule,
// which scans its files block by block and spills through the sorter;
// ChunkRows alone the chunked one, whose Shuffle streams chunk packets under
// a credit window; neither the monolithic one, whose Shuffle sends each
// packet whole or, under a cap, in segments. Every mode encodes and decodes
// inside its Shuffle, so every rank lists the same columns in every mode.
func (w *worker) schedule() (string, []stage) {
	var stages []stage
	if w.coding {
		stages = append(stages, stage{column: stats.StageCodeGen, run: w.codeGenStage})
	}
	// Place comes last before Map, after the communicator is built, and
	// ends in a barrier, so Map starts once every rank has its files.
	place := stage{untimed: true, run: w.placeStage}
	switch {
	case w.spec.MemBudget > 0:
		return "spill", append(stages,
			stage{column: stats.StageMap, run: w.mapSpillStage},
			stage{column: stats.StageShuffle, run: func() error { return w.streamStage(w.spillAppend) }},
			stage{column: stats.StageReduce, run: w.reduceSpillStage})
	case w.spec.ChunkRows > 0:
		return "chunked", append(stages, place,
			stage{column: stats.StageMap, run: w.mapStage},
			stage{column: stats.StageShuffle, run: func() error { return w.streamStage(nil) }},
			stage{column: stats.StageReduce, run: w.reduceStage})
	default:
		return "monolithic", append(stages, place,
			stage{column: stats.StageMap, run: w.mapStage},
			stage{column: stats.StageShuffle, run: w.multicastStage},
			stage{column: stats.StageReduce, run: w.reduceStage})
	}
}

// placeStage loads the files stored on this node from the runtime
// (job.Local.Load), outside the timed pipeline, and waits for every peer
// to have its files: no rank maps while a peer still places, so no
// placement shares the cores with a timed stage. A loaded file is aliased,
// never copied or written: from here only w.files, and then the views Map
// keeps, hold it, so it is garbage once its holders have reduced.
func (w *worker) placeStage() error {
	w.files = make(map[int]kv.Records, len(w.stored))
	for _, fi := range w.stored {
		f, err := w.spec.Load(fi)
		if err != nil {
			return err
		}
		w.files[fi] = f
	}
	if err := w.ep.Barrier(transport.MakeTag(tagBarrier, 0xFFFF, 0xFFFF)); err != nil {
		return fmt.Errorf("coded: rank %d barrier after placement: %w", w.rank, err)
	}
	return nil
}

// codeGenStage performs a lightweight per-group handshake: within every
// group, each member sends one setup message to its cyclic successor and
// waits for one from its predecessor. The handshake gives group
// construction a real per-group communication cost, the role MPI_Comm_split
// plays in the paper, whose measured CodeGen time scales with the group
// count.
func (w *worker) codeGenStage() error {
	// Send to all successors first (sends are asynchronous), then collect
	// from predecessors, so the ring cannot deadlock.
	for _, g := range w.myGroups {
		idx := g.Index(w.rank)
		succ := g.Members[(idx+1)%len(g.Members)]
		if err := w.ep.Send(succ, groupTag(tagCodeGen, g.ID, 0), nil); err != nil {
			return err
		}
	}
	for _, g := range w.myGroups {
		idx := g.Index(w.rank)
		pred := g.Members[(idx+len(g.Members)-1)%len(g.Members)]
		if _, err := w.ep.Recv(pred, groupTag(tagCodeGen, g.ID, 0)); err != nil {
			return err
		}
	}
	return nil
}

// mapRecords applies the Map-stage record hook, Transform. A nil hook
// returns r unchanged (aliased).
func (w *worker) mapRecords(r kv.Records) kv.Records {
	return kv.TransformRecords(r, w.cfg.Transform)
}

// mapStage hashes every stored file and keeps only the relevant
// intermediate values (Fig 5) as views of the file's rows, handing each
// file over to its views after the scatter. The scatter runs on the
// worker's Parallelism goroutines.
func (w *worker) mapStage() error {
	w.store = mapRelevant(w.plan, w.part, w.rank, func(fi int) kv.Records {
		file := w.files[fi]
		w.files[fi] = kv.Records{}
		return w.mapRecords(file)
	}, w.procs)
	return nil
}

// mapSpillStage is the out-of-core Map: every stored file is consumed
// block by block (never materialized whole), and each block's partitions
// are listed by reference (partition.SplitRows, the in-memory Map's
// scatter) and gathered once, straight to where they go. Records of this
// node's own partition go into the budget-bounded spill sorter. The
// remotely relevant intermediate values accumulate in the in-memory store
// exactly as the monolithic Map builds them when they are the XOR side
// information of Algorithms 1 and 2; without coding they are send-once, so
// each appends to its group's disk spool, framed at ChunkRows (the
// granularity the shuffle will stream it at), and peak memory is one input
// block plus the partial spool blocks.
func (w *worker) mapSpillStage() error {
	sorter, err := w.spillSorter()
	if err != nil {
		return err
	}
	ivs := codec.IVMap{}
	w.store = ivs
	// sends maps an IV this node sends to its group: the spool key.
	var sends map[codec.IVKey]int
	if !w.coding {
		w.spools = make([]*extsort.Spool, len(w.myGroups))
		w.spoolBlocks = make([]int64, len(w.myGroups))
		sends = make(map[codec.IVKey]int, len(w.myGroups))
		w.cleanups = append(w.cleanups, func() {
			for _, sp := range w.spools {
				if sp != nil {
					sp.Close()
				}
			}
		})
		for gi, g := range w.myGroups {
			if w.spools[gi], err = extsort.NewSpool(sorter.Dir(), w.spec.ChunkRows); err != nil {
				return err
			}
			for j, t := range g.Members {
				if t != w.rank {
					sends[codec.IVKey{Part: t, File: g.Need[j]}] = gi
				}
			}
		}
	}
	for _, fi := range w.stored {
		fileSet := w.plan.Files[fi]
		if err := w.spec.Scan(fi, w.spec.ChunkRows, func(block kv.Records) error {
			recs := w.mapRecords(block)
			rows := partition.SplitRows(w.part, recs, w.procs)
			for q := 0; q < w.plan.K; q++ {
				part := kv.ViewRows(recs, rows[q])
				switch {
				case q == w.rank:
					if err := sorter.AppendView(part); err != nil {
						return err
					}
				case fileSet.Contains(q):
					// Reducer q maps this file itself.
				case !w.coding:
					// An IV no group of this node carries is sent by
					// another holder of the file.
					if gi, ok := sends[codec.IVKey{Part: q, File: fileSet}]; ok {
						if err := w.spools[gi].AppendView(part); err != nil {
							return err
						}
					}
				default:
					ivs.Put(q, fileSet, ivs.IV(q, fileSet).AppendView(part))
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	for gi, sp := range w.spools {
		if w.spoolBlocks[gi], err = sp.Finish(); err != nil {
			return err
		}
		w.result.Spill.Add(stats.SpillStats{RawBytes: sp.RawBytes(), DiskBytes: sp.DiskBytes()})
	}
	return nil
}

// reduceSpillStage is the out-of-core Reduce: a streaming loser-tree merge
// over the sorted runs (plus the sorter's in-memory tail), emitted in
// ascending ChunkRows-record blocks. The sorted partition is never
// materialized unless no OutputSink is set.
func (w *worker) reduceSpillStage() error {
	sorter, err := w.spillSorter()
	if err != nil {
		return err
	}
	out, err := sorter.Drain(w.spec.ChunkRows, w.cfg.OutputSink)
	if err != nil {
		return err
	}
	w.result.Output = out.Records
	w.result.OutputRows = out.Rows
	w.result.SpilledRuns = out.SpilledRuns
	w.result.Spill.Add(stats.SpillStats{RawBytes: out.SpilledRawBytes, DiskBytes: out.SpilledDiskBytes})
	w.result.MergeOVCDecided = out.OVCDecided
	w.result.MergeFullCompares = out.FullCompares
	return nil
}

// MapFiles runs the Map stage for one node: it hashes every file stored on
// rank and returns the relevant intermediate values — I^rank_S (needed by
// this node's own reducer) and {I^q_S : q not in S} (needed by remote
// reducers that did not map S). IVs for partitions q in S\{rank} are
// dropped: those reducers computed them locally during their own Map stage
// (paper Section IV-B, Fig 5). It is the engine's Map with each view
// gathered into a buffer of its own.
func MapFiles(plan placement.Plan, part partition.Partitioner, gen *kv.Generator, rank int) codec.IVMap {
	views := mapRelevant(plan, part, rank, func(i int) kv.Records {
		return plan.Materialize(gen, i)
	}, 1)
	store := make(codec.IVMap, len(views))
	for key, v := range views {
		store[key] = v.Collect()
	}
	return store
}

// mapRelevant is the in-memory Map body: every relevant IV is the list of
// the file's rows that hash to its partition.
func mapRelevant(plan placement.Plan, part partition.Partitioner, rank int, file func(int) kv.Records, procs int) codec.ViewMap {
	store := codec.ViewMap{}
	for _, fi := range plan.FilesOn(rank) {
		fileSet := plan.Files[fi]
		recs := file(fi)
		rows := partition.SplitRows(part, recs, procs)
		for q := 0; q < plan.K; q++ {
			if q == rank || !fileSet.Contains(q) {
				store.Put(q, fileSet, kv.ViewRows(recs, rows[q]))
			}
		}
	}
	return store
}

// segmentLine is about the line time of one segment of a capped packet:
// the lag of a relay behind its root, and so of the Shuffle's tail behind
// the last root's send.
const segmentLine = time.Millisecond

// segmentMessages is the fewest per-message overheads a segment's line
// time must span, so that cutting packets costs at most about
// 1/segmentMessages of their line time in message overheads.
const segmentMessages = 16

// segmentRows returns the records of packet body per segment under the
// job's cap — about segmentLine of line time, and at least segmentMessages
// per-message overheads — or 0 without a cap, where a packet is one
// message. It reads only the job, so every rank cuts the same segments.
func segmentRows(spec *job.Resolved) int {
	if spec.RateMbps <= 0 {
		return 0
	}
	line := max(segmentLine, segmentMessages*spec.PerMessage)
	return max(int(spec.RateMbps*1e6/8*line.Seconds())/kv.RecordSize, 1)
}

// outbox holds this node's coded packets (Algorithm 1) while they are
// built, segment by segment in send order, each into its pooled buffer.
// Encoder goroutines and the sender both claim the next segment nobody has
// claimed, so a sender that finds the segment it needs unclaimed builds it
// itself instead of waiting for an encoder the scheduler has not run.
type outbox struct {
	segRows int
	encs    []*codec.PacketEncoder
	first   []int // the send position of each packet's first segment

	mu    sync.Mutex
	built sync.Cond // signalled as segments are built
	bufs  [][]byte  // each packet's buffer, from the claim of its first segment until sent
	of    []int     // the packet of each send position
	next  int       // the first send position nobody has claimed
	done  []bool    // by send position: the segment is built
}

// encodePackets starts building this node's packet for every group it
// belongs to, on the worker's Parallelism goroutines, and returns the
// outbox the sender takes the segments from. Encoding starts with the
// Shuffle, so it runs while earlier roots hold the wire and, on a root,
// just ahead of the segment on the wire. The run's cleanup stops the
// encoders, waits for them and recycles what was never sent.
func (w *worker) encodePackets(segRows int) (*outbox, error) {
	o := &outbox{segRows: segRows, bufs: make([][]byte, len(w.myGroups))}
	o.built.L = &o.mu
	for i, g := range w.myGroups {
		enc, err := codec.NewPacketEncoder(w.store, g.Group, w.rank, segRows)
		if err != nil {
			return nil, fmt.Errorf("group %v: %w", g.Members, err)
		}
		o.encs = append(o.encs, enc)
		o.first = append(o.first, len(o.of))
		for range enc.Segments() {
			o.of = append(o.of, i)
		}
	}
	o.done = make([]bool, len(o.of))
	var wg sync.WaitGroup
	for range min(w.procs, len(o.of)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				o.mu.Lock()
				if o.next == len(o.done) {
					o.mu.Unlock()
					return
				}
				o.build(o.claim())
			}
		}()
	}
	w.cleanups = append(w.cleanups, func() {
		o.mu.Lock()
		o.next = len(o.done)
		o.mu.Unlock()
		wg.Wait()
		for _, b := range o.bufs {
			codec.Recycle(b)
		}
	})
	return o, nil
}

// claim takes the next send position, and its packet's buffer when it is
// the packet's first segment. o.mu is held.
func (o *outbox) claim() int {
	pos := o.next
	o.next++
	if i := o.of[pos]; pos == o.first[i] {
		o.bufs[i] = o.encs[i].Buffer()
	}
	return pos
}

// build builds the segment at send position pos, claimed with o.mu held,
// which it releases while it builds.
func (o *outbox) build(pos int) {
	i := o.of[pos]
	buf := o.bufs[i]
	o.mu.Unlock()
	o.encs[i].EncodeSegment(buf, pos-o.first[i])
	o.mu.Lock()
	o.done[pos] = true
	o.built.Broadcast()
	o.mu.Unlock()
}

// segment returns segment s of packet i, once built — by this goroutine
// if nobody has claimed it — and whether it is the packet's last.
func (o *outbox) segment(i, s int) (seg []byte, last bool) {
	pos := o.first[i] + s
	o.mu.Lock()
	if o.next == pos {
		o.build(o.claim())
		o.mu.Lock()
	}
	for !o.done[pos] {
		o.built.Wait()
	}
	buf := o.bufs[i]
	o.mu.Unlock()
	return codec.PacketSegment(buf, o.segRows, s)
}

// sent recycles packet i, every segment of which has been sent, and
// drops its encoder, whose terms view the files; it returns the packet's
// size.
func (o *outbox) sent(i int) int {
	o.mu.Lock()
	buf := o.bufs[i]
	o.bufs[i], o.encs[i] = nil, nil
	o.mu.Unlock()
	// Bcast does not alias the packet after it returns.
	codec.Recycle(buf)
	return len(buf)
}

// inboundFrom lists, in root u's send order, the positions in myGroups of
// the groups this node shares with u — the enumeration u walks when it
// sends.
func (w *worker) inboundFrom(u int) []int {
	var out []int
	for _, m := range w.spec.Strat.GroupsOf(u) {
		if m.Contains(w.rank) {
			out = append(out, w.groupIdx[m.ID])
		}
	}
	return out
}

// multicastStage runs the serial schedule of Fig 9: one root at a time
// (rank order), each broadcasting its packets to its groups one after
// another, each packet as the run of segments segmentRows cuts (one
// segment without a cap), each sent as soon as the outbox has built it.
// A receive that relays forwards the segment before returning it, on this
// node's own egress, while the root moves on to the next. This node is the
// tail of every chain rooted at rank-1, so it relays none of its
// predecessor's packets and starts its own turn with its egress free.
//
// Each segment is decoded where it arrived as soon as Bcast returns it
// (Algorithm 2; see receiveSegments) and handed to the reducer, which the
// stage starts with the local share, so Reduce runs under the wire. The
// reducer owns the pieces from then on.
func (w *worker) multicastStage() error {
	out, err := w.encodePackets(segmentRows(w.spec))
	if err != nil {
		return err
	}
	parts := w.localShare()
	local := 0
	for _, p := range parts {
		local += p.Len()
	}
	// The files are equal slices of one input, so the local share predicts
	// the partition; a sixteenth more absorbs the sampling noise.
	reserve := 0
	if len(w.stored) > 0 {
		reserve = local * len(w.plan.Files) / len(w.stored)
		reserve += reserve / 16
	}
	red := w.startReducer(parts, reserve)
	send := func() error {
		for i, g := range w.myGroups {
			tag := groupTag(tagMulticast, g.ID, w.rank)
			for s, last := 0, false; !last; s++ {
				var seg []byte
				seg, last = out.segment(i, s)
				if _, err := w.ep.Bcast(g.Members, w.rank, tag, seg); err != nil {
					return fmt.Errorf("bcast send in %v: %w", g.Members, err)
				}
			}
			w.result.SentBytes += int64(out.sent(i))
			w.result.SentOps++
		}
		return nil
	}
	return w.shuffle(send, w.receiveSegments, keep(red.add), red.finish)
}

// receiveSegments takes the packet root u sends in group myGroups[gi],
// segment by segment up to the one that closes it, and hands each decoded
// segment to take: the segment is this node's own by then, since a relay's
// forward completes first, and it is decoded in place.
func (w *worker) receiveSegments(gi, u int, take func(kv.Records) error) error {
	g := w.myGroups[gi]
	dec, err := codec.NewSegmentDecoder(w.store, g.Group, w.rank, u, segmentRows(w.spec))
	if err != nil {
		return fmt.Errorf("decode in %v from %d: %w", g.Members, u, err)
	}
	for last := false; !last; {
		seg, err := w.ep.Bcast(g.Members, u, groupTag(tagMulticast, g.ID, u), nil)
		if err != nil {
			return fmt.Errorf("bcast recv in %v from %d: %w", g.Members, u, err)
		}
		var recs kv.Records
		if recs, last, err = dec.Decode(seg); err != nil {
			return fmt.Errorf("decode in %v from %d: %w", g.Members, u, err)
		}
		if err := take(recs); err != nil {
			return err
		}
	}
	return nil
}

// streamStage is the pipelined replacement for Encode+Multicast+Decode:
// every packet travels as a stream of chunk packets, each the XOR of
// aligned ChunkRows-record chunk slices of its contributing segments
// (chunked Algorithms 1 and 2). The root encodes chunk n+1 while chunk n is
// in flight, every member decodes each chunk on arrival — retaining only
// recovered records, never whole packets — and per-chunk credits from all
// group members bound the root's run-ahead to Window chunks (see
// receiveStream). spill, when set, takes every decoded chunk as it comes;
// else each joins the remote share for Reduce.
func (w *worker) streamStage(spill func(kv.Records) error) error {
	take := spill
	if take == nil {
		var mu sync.Mutex
		take = keep(func(v kv.View) {
			mu.Lock()
			w.remote = append(w.remote, v)
			mu.Unlock()
		})
	}
	send := func() error {
		for gi := range w.myGroups {
			if err := w.sendStream(gi); err != nil {
				return err
			}
		}
		return nil
	}
	return w.shuffle(send, w.receiveStream, take, nil)
}

// shuffle runs this node's part of a Shuffle: send under the sender
// schedule (inTurn), beside one receiver per other root, all started at
// once whatever the schedule. Each receiver walks the groups this node
// shares with its root, in the root's send order, through receive, which
// hands every decoded piece to take as it comes: take must be safe for
// concurrent use, and the order pieces arrive in changes nothing, since
// every sort orders whole records. finish, when set, runs once every
// receiver has returned without error, while this node may still be
// sending.
//
// The first receive error is the Shuffle's as soon as this node is not
// sending. A receiver that fails stops relaying and acknowledging its
// root's traffic, so peers may wait on it forever, this node's turn to
// send among them: a send whose turn has not come when a receiver fails
// never starts, and one that runs is let finish, so no send outlives the
// stage. Receivers still waiting on their roots unblock with ErrClosed at
// teardown.
func (w *worker) shuffle(send func() error, receive func(gi, u int, take func(kv.Records) error) error,
	take func(kv.Records) error, finish func()) error {
	recvErr, failed := make(chan error, 1), make(chan struct{})
	var failOnce sync.Once
	fail := func(err error) { failOnce.Do(func() { recvErr <- err; close(failed) }) }
	var receivers sync.WaitGroup
	for u := range w.spec.K {
		if u == w.rank {
			continue
		}
		receivers.Add(1)
		go func() {
			defer receivers.Done()
			for _, gi := range w.inboundFrom(u) {
				if err := receive(gi, u, take); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	go func() {
		receivers.Wait()
		select {
		case <-failed:
		default:
			if finish != nil {
				finish()
			}
			recvErr <- nil
		}
	}()

	// The send, once its turn comes, and a receive error race for one
	// token: the send starts only if it takes the token first, and a
	// receive error that finds it taken lets the running send finish.
	token, sent := make(chan struct{}, 1), make(chan error, 1)
	token <- struct{}{}
	go func() {
		sent <- w.inTurn(func() error {
			select {
			case <-token:
				return send()
			default:
				return errGaveWay
			}
		})
	}()
	select {
	case err := <-sent:
		if err != nil {
			// Don't wait for receivers whose roots may be gone; they unblock
			// with ErrClosed at teardown.
			return err
		}
	case <-failed:
		select {
		case <-token:
		default:
			<-sent
		}
	}
	return <-recvErr
}

// errGaveWay is what a send returns that never started because a receive
// error ended the Shuffle first.
var errGaveWay = errors.New("coded: send gave way to a receive error")

// receiveStream consumes the chunk stream root u sends in group
// myGroups[gi] up to its last-flagged chunk: it receives each framed chunk,
// returns one credit, validates the frame, decodes the chunk in place and
// hands the recovered records to take. The credit goes back before
// validation, so a bad frame here never wedges the sender behind a window
// that will not reopen.
func (w *worker) receiveStream(gi, u int, take func(kv.Records) error) error {
	g := w.myGroups[gi]
	var stream codec.ChunkStream
	for c := 0; !stream.Done(); c++ {
		frame, err := w.ep.Bcast(g.Members, u, groupTag(tagMulticast, g.ID, u), nil)
		if err != nil {
			return fmt.Errorf("bcast recv in %v from %d: %w", g.Members, u, err)
		}
		if err := transport.StreamAck(w.ep, u, groupTag(tagChunkAck, g.ID, u)); err != nil {
			return err
		}
		payload, _, err := stream.Accept(frame)
		if err != nil {
			return fmt.Errorf("chunk stream in %v from %d: %w", g.Members, u, err)
		}
		recs, err := codec.DecodeGroupPacketChunkInPlace(w.store, g.Group, w.rank, u, w.spec.ChunkRows, c, payload)
		if err != nil {
			return fmt.Errorf("decode chunk %d in %v from %d: %w", c, g.Members, u, err)
		}
		if err := take(recs); err != nil {
			return err
		}
		w.chunksReceived.Add(1)
	}
	return nil
}

// sendStream ships this node's chunk stream in group myGroups[gi] under
// the credit window.
func (w *worker) sendStream(gi int) error {
	g := w.myGroups[gi]
	count, frameOf, err := w.chunkSource(gi)
	if err != nil {
		return err
	}
	ackTag := groupTag(tagChunkAck, g.ID, w.rank)
	gate := transport.CreditGate{Window: w.spec.Window, Await: func() error {
		for _, m := range g.Members {
			if m == w.rank {
				continue
			}
			if _, err := w.ep.Recv(m, ackTag); err != nil {
				return err
			}
		}
		return nil
	}}
	for c := 0; c < count; c++ {
		frame, err := frameOf(c, c == count-1)
		if err != nil {
			return err
		}
		if err := gate.Reserve(); err != nil {
			return err
		}
		if _, err := w.ep.Bcast(g.Members, w.rank, groupTag(tagMulticast, g.ID, w.rank), frame); err != nil {
			return fmt.Errorf("bcast send in %v: %w", g.Members, err)
		}
		gate.Sent()
		w.result.SentBytes += int64(len(frame))
		w.result.SentOps++
		w.result.ChunksSent++
		// Bcast does not alias the frame after it returns; back to the
		// pool for the next chunk.
		codec.Recycle(frame)
	}
	return gate.Drain()
}

// chunkSource returns the chunk count of this node's stream in group
// myGroups[gi] and a builder of its framed chunk packets, called in chunk
// order: encoded from the IV store, or — when the out-of-core Map spooled
// the group's IV — read back from the spool block by block, one chunk per
// block, so the sender never holds the stream's records either.
func (w *worker) chunkSource(gi int) (int, func(c int, last bool) ([]byte, error), error) {
	g := w.myGroups[gi]
	if w.spools == nil {
		count := codec.GroupPacketChunkCount(w.store, g.Group, w.rank, w.spec.ChunkRows)
		return count, func(c int, last bool) ([]byte, error) {
			frame, err := codec.FrameGroupPacketChunk(w.store, g.Group, w.rank, w.spec.ChunkRows, c, last)
			if err != nil {
				return nil, fmt.Errorf("encode chunk %d in %v: %w", c, g.Members, err)
			}
			return frame, nil
		}, nil
	}
	rd, err := w.spools[gi].Reader()
	if err != nil {
		return 0, nil, err
	}
	blocks := int(w.spoolBlocks[gi])
	// An empty spool still closes its stream with one last-flagged chunk.
	return max(blocks, 1), func(c int, last bool) ([]byte, error) {
		var block kv.Records
		if c < blocks {
			if block, err = rd.Next(); err != nil {
				return nil, fmt.Errorf("spool for group %v: %w", g.Members, err)
			}
		}
		return codec.FrameSegmentChunk(uint32(c), last, block), nil
	}, nil
}

// keep returns the take of an in-memory Shuffle, which hands each decoded
// piece on to hand as a view of the records where they lie. A piece is
// decoded where its packet segment or chunk frame arrived, and that buffer
// is padded to the group's widest piece, so under partition skew a member's
// share can be a sliver of it: an empty piece is dropped, and one that
// fills under half its buffer is copied out so the buffer can go.
func keep(hand func(kv.View)) func(kv.Records) error {
	return func(recs kv.Records) error {
		switch b := recs.Bytes(); {
		case len(b) == 0:
			return nil
		case 2*len(b) < cap(b):
			recs = recs.Clone()
		}
		hand(kv.ViewAll(recs))
		return nil
	}
}

// localShare lists partition `rank`'s share of the stored files, views of
// their rows, in stored order.
func (w *worker) localShare() []kv.View {
	parts := make([]kv.View, len(w.stored))
	for i, fi := range w.stored {
		parts[i] = w.store.View(w.rank, w.plan.Files[fi])
	}
	return parts
}

// reduceStage joins the reducer, which has been sorting partition `rank`
// (Section IV-F) since the Shuffle: the locally mapped share
// ({I^rank_S : rank in S}, views of the stored files) and the decoded
// remote share ({I^rank_S : rank not in S}: the pieces where they
// arrived). The parts are ordered by reference where they lie and each
// record is copied once, into the output. With an OutputSink the output is
// gathered and handed over reduceBlockRows at a time, never whole. Then the
// node lets go of the files and packets.
//
// The chunked Shuffle starts no reducer: its Reduce hands the reducer the
// local share and the remote one as one run, and waits for it.
func (w *worker) reduceStage() error {
	if w.reducer == nil {
		w.startReducer(append(w.localShare(), w.remote...), 0).finish()
	}
	rows, output, err := w.reducer.join()
	w.result.OutputRows, w.result.Output = int64(rows), output
	w.store, w.remote, w.reducer = nil, nil, nil
	return err
}

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
//  2. Place — materialize the files stored on this node (untimed, like the
//     coordinator's disk placement it stands in for).
//  3. Map — hash every stored file, keeping only the relevant intermediate
//     values (I^k_S and {I^i_S : i not in S}, Fig 5).
//  4. Encode — build one coded packet E_{M,k} per group (Algorithm 1).
//  5. Multicast Shuffling — serial multicast, one sender at a time, each
//     packet broadcast to the other members of its group (Fig 9).
//  6. Decode — cancel known segments from received packets to recover the
//     needed intermediate values (Algorithm 2).
//  7. Reduce — locally sort partition k.
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
// The package is a stage-graph builder over the internal/engine runtime:
// scheduling, mode selection, spill-sorter lifecycle, transfer accounting
// and per-stage instrumentation live there. The placement/coding scheme is
// pluggable (job.Spec.Placement) through placement.Strategy.
package coded

import (
	"fmt"
	"os"
	"sync"

	"codedterasort/internal/codec"
	"codedterasort/internal/engine"
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
	// Sampling-round tags: key samples gathered to rank 0, agreed splitter
	// bounds broadcast back.
	tagSample       uint8 = 0x25
	tagSampleBounds uint8 = 0x26
)

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
	// Local attaches an explicit partitioner or in-memory input files.
	job.Local
	// Filter, when non-nil, keeps only records it accepts during the Map
	// stage — the "Beyond Sorting" hook (paper Section VI): Grep selects in
	// Map and shuffles only (coded) matches. The function must be pure and
	// identical on all workers, because every replica of a file must
	// produce identical intermediate values for the XOR cancellation to
	// hold.
	Filter func(record []byte) bool
	// Transform, when non-nil, rewrites each surviving input record into
	// zero or more intermediate records during the Map stage (after
	// Filter) — the general map hook behind internal/mapreduce: the shuffle
	// moves whatever records the transform emits. Each emitted record must
	// be kv.RecordSize bytes. Pure and identical on all workers, like
	// Filter.
	Transform func(record []byte, emit func([]byte))
	// OutputSink, when non-nil, receives the node's sorted partition as
	// ascending record blocks during Reduce instead of it being
	// materialized in Result.Output. The block passed to the sink is
	// reused; the sink must not retain it. With MemBudget unset the whole
	// partition arrives as one block.
	OutputSink func(kv.Records) error
	// Hooks observes each timed stage of the run — the instrumentation API
	// the cluster runtime uses for its stage log. It sees exactly the
	// elapsed times Summary.Times sums.
	Hooks engine.Hooks
}

// Summary is what a worker reports about its run, everything but the
// records: the block coded.Result, cluster.WorkerReport and the TCP report
// frame share, so a report crosses each layer by assignment. The JSON keys
// are the report frame's.
type Summary struct {
	// Times is the node's stage breakdown (CodeGen, Map, Encode under
	// Pack, Shuffle, Decode under Unpack, Reduce), as the engine scheduler
	// charged it.
	Times stats.Breakdown `json:"times"`
	// OutputRows and OutputChecksum summarize the sorted partition in
	// every mode, including sink-streamed budget runs where Output is
	// empty. The checksum is the kv order-independent multiset digest.
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
	// MemBudget; the gap is the compact block format's saving).
	Spill stats.SpillStats `json:"spill,omitzero"`
	// MergeOVCDecided and MergeFullCompares are the final merge's
	// loser-tree match counters: matches decided by cached offset-value
	// codes alone vs matches that compared key bytes.
	MergeOVCDecided   int64 `json:"merge_ovc_decided,omitempty"`
	MergeFullCompares int64 `json:"merge_full_compares,omitempty"`
	// SplitterBounds are the boundary keys this worker partitioned with
	// under sampled partitioning (agreed in the sampling round or preset
	// via Spec.Splitters); nil under uniform partitioning. Every worker
	// must report the same bounds — the coordinator cross-checks.
	SplitterBounds [][]byte `json:"splitter_bounds,omitempty"`
	// SampleRoundBytes counts the sampling-round payload this worker
	// pushed: sample keys gathered plus, on the selecting rank, the
	// broadcast bounds. Zero when no round ran.
	SampleRoundBytes int64 `json:"sample_round_bytes,omitempty"`
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
	if err := w.run(ep, stats.NewWallClock()); err != nil {
		return Result{}, err
	}
	return w.result, nil
}

type worker struct {
	cfg  Config        // the process-local hooks
	spec *job.Resolved // cfg.Spec and cfg.Local, validated and defaulted
	rank int
	part partition.Partitioner // resolved by config or the sampling stage

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
	// in-memory modes; Map releases each one after its scatter.
	files map[int]kv.Records
	store codec.IVMap // IVs kept after Map: {I^q_S : rank in S, q == rank or q not in S}
	// spools[gi] holds the IV this node sends in group myGroups[gi] when the
	// out-of-core Map spooled it to disk (no coding); spoolBlocks are
	// the finished spools' block counts.
	spools      []*extsort.Spool
	spoolBlocks []int64
	packets     [][]byte // E_{M,rank} per myGroups index
	// received[gi][i] is the packet from member i of group myGroups[gi].
	received [][][]byte
	// decoded[gi][i] is the segment of this node's needed IV recovered from
	// member i of group myGroups[gi]; read in (group, member) order it is
	// the remote share of partition `rank`.
	decoded [][]kv.Records
	result  Result
}

// newWorker resolves the job against the endpoint's world and derives
// everything the stage graph's shape depends on: the placement plan, this
// node's files and groups, and the group size.
func newWorker(ep transport.Endpoint, cfg Config) (*worker, error) {
	spec, err := cfg.Resolve(cfg.Local)
	if err != nil {
		return nil, err
	}
	if ep.Size() != spec.K {
		return nil, fmt.Errorf("coded: endpoint world %d != K %d", ep.Size(), spec.K)
	}
	plan, err := spec.Strat.Plan(spec.Rows)
	if err != nil {
		return nil, err
	}
	rank := ep.Rank()
	w := &worker{cfg: cfg, spec: spec, rank: rank, part: spec.Part, plan: plan,
		stored: plan.FilesOn(rank), myGroups: spec.Strat.GroupsOf(rank), store: codec.IVMap{}}
	w.groupIdx = make(map[int64]int, len(w.myGroups))
	for i, g := range w.myGroups {
		w.groupIdx[g.ID] = i
	}
	// Group size is uniform within a strategy, so every rank reads the same
	// value and builds the same graph.
	spec.Strat.EachGroup(func(g placement.Group) bool {
		w.coding = len(g.Members) > 2
		return false
	})
	w.result.Groups = len(w.myGroups)
	return w, nil
}

// run drives the stage graph on the engine runtime, timing stages by
// clock, and fills the result.
func (w *worker) run(ep transport.Endpoint, clock stats.Clock) error {
	ctx, err := engine.Run(ep, w.graph(), w.spec, clock, w.cfg.Hooks)
	if err != nil {
		return err
	}
	if sp, ok := w.part.(partition.Splitters); ok {
		w.result.SplitterBounds = sp.Bounds()
	}
	w.result.SampleRoundBytes = ctx.Counters.SampleBytes
	w.result.SentBytes = ctx.Counters.SentBytes
	w.result.SentOps = ctx.Counters.SentOps
	w.result.ChunksSent = ctx.Counters.ChunksSent
	w.result.ChunksReceived = ctx.Counters.ChunksReceived()
	w.result.Times = ctx.Times
	return nil
}

// graph declares the stage DAG over the engine runtime: the paper's
// monolithic schedule, the chunked streaming variant that collapses
// Encode+Shuffle+Decode into one overlapped stage, and the out-of-core
// variant that spills through the runtime's sorter — one declarative graph,
// scheduled by the runtime's policy-derived mode.
func (w *worker) graph() *engine.Graph {
	g := engine.NewGraph("coded", func(s stats.Stage) transport.Tag {
		return transport.MakeTag(tagBarrier, uint16(s), 0xFFFF)
	})
	if w.coding {
		g.Add(engine.Stage{Kind: engine.KindCodeGen, Modes: engine.AllModes, Run: w.codeGenStage})
	}
	mapNeeds := []string{"files"}
	var spillNeeds []string
	if w.part == nil {
		// Sampled partitioning without preset splitters: the splitter
		// agreement rides the graph as a timed pre-Map stage, so hooks,
		// fault injection and recovery cover it like any other stage. It
		// shares the CodeGen breakdown column.
		g.Add(engine.Stage{Kind: engine.KindSample, Modes: engine.AllModes,
			Provides: []string{"part"}, Run: w.sampleStage})
		mapNeeds = append(mapNeeds, "part")
		spillNeeds = []string{"part"}
	}
	// Place comes last before Map, the first stage whose body talks to no
	// peer: placement is unbarriered, so a communicating stage after it
	// would be charged the wait for the slowest rank's placement.
	g.Add(engine.Stage{Kind: engine.KindPlace, Modes: engine.InMemory,
		Provides: []string{"files"}, Run: w.placeStage})
	g.Add(engine.Stage{Kind: engine.KindMap, Modes: engine.InMemory,
		Needs: mapNeeds, Provides: []string{"store"}, Run: w.mapStage})
	g.Add(engine.Stage{Kind: engine.KindMap, Modes: engine.In(engine.ModeSpill),
		Needs: spillNeeds, Provides: []string{"store", "sorter"}, Run: w.mapSpillStage})
	g.Add(engine.Stage{Kind: engine.KindPack, Modes: engine.In(engine.ModeMono),
		Needs: []string{"store"}, Provides: []string{"packets"}, Run: w.encodeStage})
	g.Add(engine.Stage{Kind: engine.KindShuffle, Modes: engine.In(engine.ModeMono),
		Needs: []string{"packets"}, Provides: []string{"received"}, Run: w.multicastStage})
	g.Add(engine.Stage{Kind: engine.KindShuffle, Modes: engine.Streaming,
		Needs: []string{"store"}, Provides: []string{"decoded"}, Run: w.streamStage})
	g.Add(engine.Stage{Kind: engine.KindUnpack, Modes: engine.In(engine.ModeMono),
		Needs: []string{"received", "store"}, Provides: []string{"decoded"}, Run: w.decodeStage})
	g.Add(engine.Stage{Kind: engine.KindReduce, Modes: engine.InMemory,
		Needs: []string{"store", "decoded"}, Run: w.reduceStage})
	g.Add(engine.Stage{Kind: engine.KindReduce, Modes: engine.In(engine.ModeSpill),
		Needs: []string{"sorter"}, Run: w.reduceSpillStage})
	return g
}

// placeStage materializes the files stored on this node — supplied,
// read from disk, or generated (the row-addressable generator stands in for
// the coordinator's disk placement) — outside the timed pipeline.
func (w *worker) placeStage(ctx *engine.Context) error {
	w.files = make(map[int]kv.Records, len(w.stored))
	gen := kv.NewGenerator(w.spec.Seed, w.spec.KeyDist)
	for _, fi := range w.stored {
		switch {
		case w.spec.Input != nil:
			w.files[fi] = w.spec.Input[fi]
		case w.spec.InputDir != "":
			buf, err := os.ReadFile(extsort.PartFile(w.spec.InputDir, fi))
			if err != nil {
				return fmt.Errorf("coded: read input file: %w", err)
			}
			if w.files[fi], err = kv.NewRecords(buf); err != nil {
				return err
			}
		default:
			first, last := w.plan.FileRows(fi)
			w.files[fi] = gen.GenerateParallel(first, last-first, ctx.Procs)
		}
	}
	return nil
}

// scanFile feeds stored file fi to fn in ChunkRows-record blocks without
// ever holding the file — the out-of-core counterpart of placeStage.
func (w *worker) scanFile(fi int, fn func(kv.Records) error) error {
	switch {
	case w.spec.Input != nil:
		return w.spec.Input[fi].ForEachBlock(w.spec.ChunkRows, fn)
	case w.spec.InputDir != "":
		return extsort.ScanFile(extsort.PartFile(w.spec.InputDir, fi), w.spec.ChunkRows, fn)
	default:
		first, last := w.plan.FileRows(fi)
		return kv.NewGenerator(w.spec.Seed, w.spec.KeyDist).GenerateBlocks(first, last-first, w.spec.ChunkRows, fn)
	}
}

// codeGenStage performs a lightweight per-group handshake: within every
// group, each member sends one setup message to its cyclic successor and
// waits for one from its predecessor. The handshake gives group
// construction a real per-group communication cost, the role MPI_Comm_split
// plays in the paper, whose measured CodeGen time scales with the group
// count.
func (w *worker) codeGenStage(ctx *engine.Context) error {
	// Send to all successors first (sends are asynchronous), then collect
	// from predecessors, so the ring cannot deadlock.
	for _, g := range w.myGroups {
		idx := g.Index(w.rank)
		succ := g.Members[(idx+1)%len(g.Members)]
		if err := ctx.Ep.Send(succ, groupTag(tagCodeGen, g.ID, 0), nil); err != nil {
			return err
		}
	}
	for _, g := range w.myGroups {
		idx := g.Index(w.rank)
		pred := g.Members[(idx+len(g.Members)-1)%len(g.Members)]
		if _, err := ctx.Ep.Recv(pred, groupTag(tagCodeGen, g.ID, 0)); err != nil {
			return err
		}
	}
	return nil
}

// sampleStage is the splitter-agreement round of sampled partitioning:
// draw this rank's share of the global stride sample, pool it at rank 0,
// and install the broadcast splitters as the run's partitioner.
func (w *worker) sampleStage(ctx *engine.Context) error {
	keys, err := w.sampleKeys()
	if err != nil {
		return err
	}
	bounds, err := ctx.SampleSplitters(
		transport.MakeTag(tagSample, 0, 0), transport.MakeTag(tagSampleBounds, 0, 0), keys)
	if err != nil {
		return err
	}
	sp, err := partition.NewSplitters(bounds)
	if err != nil {
		return fmt.Errorf("coded: sampled splitters: %w", err)
	}
	if sp.NumPartitions() != w.spec.K {
		return fmt.Errorf("coded: sampling agreed on %d partitions for K=%d", sp.NumPartitions(), w.spec.K)
	}
	w.part = sp
	return nil
}

// sampleKeys draws this rank's share of the deterministic global stride
// sample: the key of every stride-th row of the whole input. Only a file's
// minimum-rank holder contributes its sampled rows, so the shares tile the
// row space exactly once and the pooled sample — and hence the splitters —
// is a pure function of the input and the sample size, identical at every
// redundancy and on every recovery attempt. Map-stage hooks apply before
// key extraction so the splitters balance the records the shuffle will
// actually carry.
func (w *worker) sampleKeys() ([]byte, error) {
	n := w.plan.NumFiles()
	// File-order global offsets: generated files tile [0, Rows) via the
	// plan; supplied input files tile by cumulative length.
	offsets := make([]int64, n+1)
	for i := 0; i < n; i++ {
		if w.spec.Input != nil {
			offsets[i+1] = offsets[i] + int64(w.spec.Input[i].Len())
		} else {
			offsets[i+1] = offsets[i] + w.plan.FileRowCount(i)
		}
	}
	stride := partition.SampleStride(offsets[n], w.spec.SampleSize)
	gen := kv.NewGenerator(w.spec.Seed, w.spec.KeyDist)
	// A Map-stage hook may read or rewrite the value, so it needs whole
	// sampled records; without one a generated sample is keys alone.
	hooked := w.cfg.Filter != nil || w.cfg.Transform != nil
	rec := make([]byte, kv.RecordSize)
	sampled := kv.MakeRecords(0)
	var keys []byte
	for _, fi := range w.stored {
		if w.plan.Files[fi].Min() != w.rank {
			continue
		}
		if w.spec.InputDir != "" {
			// Peer file sizes are not visible locally, so an on-disk file
			// samples its own positions at the stride of n files of its
			// size — identical to the global stride when the files split
			// the input evenly, and a valid per-file sample otherwise.
			path := extsort.PartFile(w.spec.InputDir, fi)
			st, err := os.Stat(path)
			if err != nil {
				return nil, fmt.Errorf("coded: sample input file: %w", err)
			}
			rows := st.Size() / int64(kv.RecordSize)
			s, err := extsort.SampleFile(path, partition.SampleStride(rows*int64(n), w.spec.SampleSize))
			if err != nil {
				return nil, err
			}
			sampled = sampled.AppendRecords(s)
			continue
		}
		first, last := offsets[fi], offsets[fi+1]
		for g := partition.FirstSampleRow(first, stride); g < last; g += stride {
			// Generated files tile [0, Rows) in file order, so the plan
			// row of a sampled offset is the offset itself.
			switch {
			case w.spec.Input != nil:
				sampled = sampled.Append(w.spec.Input[fi].Record(int(g - first)))
			case hooked:
				gen.Record(rec, g)
				sampled = sampled.Append(rec)
			default:
				gen.Key(rec[:kv.KeySize], g)
				keys = append(keys, rec[:kv.KeySize]...)
			}
		}
	}
	// One run samples either records or bare keys, never both, so the
	// order of the two parts is immaterial.
	return append(keys, w.mapRecords(sampled).Keys()...), nil
}

// mapRecords applies the Map-stage record hooks in order: Filter selects,
// Transform rewrites. Both nil returns r unchanged (aliased).
func (w *worker) mapRecords(r kv.Records) kv.Records {
	if keep := w.cfg.Filter; keep != nil {
		out := kv.MakeRecords(r.Len())
		for i := 0; i < r.Len(); i++ {
			if keep(r.Record(i)) {
				out = out.Append(r.Record(i))
			}
		}
		r = out
	}
	return kv.TransformRecords(r, w.cfg.Transform)
}

// mapStage hashes every stored file and keeps only the relevant
// intermediate values (Fig 5), releasing each file after its scatter. The
// scatter runs on the worker's Parallelism goroutines.
func (w *worker) mapStage(ctx *engine.Context) error {
	w.store = mapRelevant(w.plan, w.part, w.rank, func(fi int) kv.Records {
		file := w.files[fi]
		w.files[fi] = kv.Records{}
		return w.mapRecords(file)
	}, ctx.Procs)
	return nil
}

// mapSpillStage is the out-of-core Map: every stored file is consumed
// block by block (never materialized whole), and each block's partitions
// route by destiny. Records of this node's own partition go straight into
// the runtime's budget-bounded sorter. The remotely relevant intermediate
// values accumulate in the in-memory store exactly as the monolithic Map
// builds them when they are the XOR side information of Algorithms 1 and
// 2; without coding they are send-once, so each appends to its
// group's disk spool, framed at ChunkRows (the granularity the shuffle will
// stream it at), and peak memory is one input block plus the partial spool
// blocks.
func (w *worker) mapSpillStage(ctx *engine.Context) error {
	sorter, err := ctx.Sorter()
	if err != nil {
		return err
	}
	// sends maps an IV this node sends to its group: the spool key.
	var sends map[codec.IVKey]int
	if !w.coding {
		w.spools = make([]*extsort.Spool, len(w.myGroups))
		w.spoolBlocks = make([]int64, len(w.myGroups))
		sends = make(map[codec.IVKey]int, len(w.myGroups))
		ctx.Defer(func() {
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
		if err := w.scanFile(fi, func(block kv.Records) error {
			parts := partition.SplitParallel(w.part, w.mapRecords(block), ctx.Procs)
			for q := 0; q < w.plan.K; q++ {
				switch {
				case q == w.rank:
					if err := sorter.Append(parts[q]); err != nil {
						return err
					}
				case fileSet.Contains(q):
					// Reducer q maps this file itself.
				case !w.coding:
					// An IV no group of this node carries is sent by
					// another holder of the file.
					if gi, ok := sends[codec.IVKey{Part: q, File: fileSet}]; ok {
						if err := w.spools[gi].Append(parts[q]); err != nil {
							return err
						}
					}
				default:
					w.store.Put(q, fileSet, w.store.IV(q, fileSet).AppendRecords(parts[q]))
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
func (w *worker) reduceSpillStage(ctx *engine.Context) error {
	sorter, err := ctx.Sorter()
	if err != nil {
		return err
	}
	out, err := extsort.DrainSorted(sorter, w.spec.ChunkRows, w.cfg.OutputSink)
	if err != nil {
		return err
	}
	w.result.Output = out.Records
	w.result.OutputRows = out.Rows
	w.result.OutputChecksum = out.Checksum
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
// (paper Section IV-B, Fig 5).
func MapFiles(plan placement.Plan, part partition.Partitioner, gen *kv.Generator, rank int) codec.IVMap {
	return mapRelevant(plan, part, rank, func(i int) kv.Records {
		return plan.Materialize(gen, i)
	}, 1)
}

func mapRelevant(plan placement.Plan, part partition.Partitioner, rank int, file func(int) kv.Records, procs int) codec.IVMap {
	store := codec.IVMap{}
	for _, fi := range plan.FilesOn(rank) {
		fileSet := plan.Files[fi]
		parts := partition.SplitParallel(part, file(fi), procs)
		for q := 0; q < plan.K; q++ {
			if q == rank || !fileSet.Contains(q) {
				store.Put(q, fileSet, parts[q])
			}
		}
	}
	return store
}

// encodeStage builds this node's coded packet for every group it belongs
// to (Algorithm 1). Packet construction includes the serialization work the
// paper assigns to the Pack/Encode stage. Groups are independent (the IV
// store is read-only here) and packets are indexed by group position, so
// the per-group encodes run on the worker's Parallelism goroutines.
func (w *worker) encodeStage(ctx *engine.Context) error {
	w.packets = make([][]byte, len(w.myGroups))
	return parallel.Do(ctx.Procs, len(w.myGroups), func(i int) error {
		g := w.myGroups[i]
		p, err := codec.EncodeGroupPacket(w.store, g.Group, w.rank)
		if err != nil {
			return fmt.Errorf("group %v: %w", g.Members, err)
		}
		w.packets[i] = p
		return nil
	})
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

// memberSlots returns one slot per member of every group of this node, the
// shape of received and decoded.
func memberSlots[T any](groups []placement.Group) [][]T {
	out := make([][]T, len(groups))
	for i, g := range groups {
		out[i] = make([]T, len(g.Members))
	}
	return out
}

// multicastStage runs the serial schedule of Fig 9: one sender at a time
// (rank order), each broadcasting its packets to its groups one after
// another. Receives run concurrently, roots in ascending rank order, so the
// single active sender streams without blocking.
func (w *worker) multicastStage(ctx *engine.Context) error {
	w.received = memberSlots[[]byte](w.myGroups)
	recvErr := make(chan error, 1)
	go func() {
		for u := 0; u < w.spec.K; u++ {
			if u == w.rank {
				continue
			}
			for _, gi := range w.inboundFrom(u) {
				g := w.myGroups[gi]
				p, err := ctx.Ep.Bcast(g.Members, u, groupTag(tagMulticast, g.ID, u), nil)
				if err != nil {
					recvErr <- fmt.Errorf("bcast recv in %v from %d: %w", g.Members, u, err)
					return
				}
				w.received[gi][g.Index(u)] = p
			}
		}
		recvErr <- nil
	}()

	send := func() error {
		for i, g := range w.myGroups {
			if _, err := ctx.Ep.Bcast(g.Members, w.rank, groupTag(tagMulticast, g.ID, w.rank), w.packets[i]); err != nil {
				return fmt.Errorf("bcast send in %v: %w", g.Members, err)
			}
			ctx.Counters.SentBytes += int64(len(w.packets[i]))
			ctx.Counters.SentOps++
		}
		return nil
	}
	if err := ctx.Schedule(transport.MakeTag(tagToken, 0, 0), send); err != nil {
		return err
	}
	return <-recvErr
}

// streamStage is the pipelined replacement for Encode+Multicast+Decode:
// every packet travels as a stream of chunk packets, each the XOR of
// aligned ChunkRows-record chunk slices of its contributing segments
// (chunked Algorithms 1 and 2). The root encodes chunk n+1 while chunk n is
// in flight, every member decodes each chunk on arrival — retaining only
// recovered records, never whole packets — and per-chunk credits from all
// group members bound the root's run-ahead to Window chunks. The receive
// side runs one goroutine per root, each walking that root's groups in the
// root's send order, so concurrent senders never queue behind one another.
func (w *worker) streamStage(ctx *engine.Context) error {
	w.decoded = memberSlots[kv.Records](w.myGroups)
	recvErrs := make([]error, w.spec.K)
	var wg sync.WaitGroup
	// Under the serial schedule the roots take the wire in rank order and
	// the receivers take turns in the same order, at no cost: records then
	// reach the spill sorter, whose equal keys keep arrival order, in an
	// order independent of goroutine timing (a credit precedes the chunk's
	// consumption, so the next root may start while the last chunk of the
	// previous one is still being consumed).
	var turn chan struct{}
	for u := 0; u < w.spec.K; u++ {
		if u == w.rank {
			continue
		}
		prev, done := turn, make(chan struct{})
		if !w.spec.ParallelShuffle {
			turn = done
		}
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			defer close(done)
			if prev != nil {
				<-prev
			}
			for _, gi := range w.inboundFrom(u) {
				if recvErrs[u] = w.receiveStream(ctx, gi, u); recvErrs[u] != nil {
					return
				}
			}
		}(u)
	}

	send := func() error {
		for gi := range w.myGroups {
			if err := w.sendStream(ctx, gi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := ctx.Schedule(transport.MakeTag(tagToken, 0, 0), send); err != nil {
		// Don't wait for receivers whose roots may be gone; they unblock
		// with ErrClosed at teardown.
		return err
	}
	wg.Wait()
	for _, err := range recvErrs {
		if err != nil {
			return err
		}
	}
	return nil
}

// receiveStream consumes the chunk stream root u sends in group
// myGroups[gi], decoding each chunk on arrival. Recovered records
// accumulate into the group's decoded slot, or in the spill mode go
// straight into the runtime's budget-bounded sorter.
func (w *worker) receiveStream(ctx *engine.Context, gi, u int) error {
	g := w.myGroups[gi]
	seg := &w.decoded[gi][g.Index(u)]
	consume := func(recs kv.Records) error {
		*seg = seg.AppendRecords(recs)
		return nil
	}
	if ctx.Mode == engine.ModeSpill {
		consume = ctx.SpillAppend
	}
	rx := engine.ChunkRx{
		Recv: func() ([]byte, error) {
			p, err := ctx.Ep.Bcast(g.Members, u, groupTag(tagMulticast, g.ID, u), nil)
			if err != nil {
				return nil, fmt.Errorf("bcast recv in %v from %d: %w", g.Members, u, err)
			}
			return p, nil
		},
		Ack: func() error {
			return transport.StreamAck(ctx.Ep, u, groupTag(tagChunkAck, g.ID, u))
		},
		Decode: func(c int, payload []byte) (kv.Records, error) {
			part, err := codec.DecodeGroupPacketChunk(w.store, g.Group, w.rank, u, w.spec.ChunkRows, c, payload)
			if err != nil {
				return kv.Records{}, fmt.Errorf("decode chunk %d in %v from %d: %w", c, g.Members, u, err)
			}
			return part, nil
		},
		Consume: consume,
		WrapStreamErr: func(err error) error {
			return fmt.Errorf("chunk stream in %v from %d: %w", g.Members, u, err)
		},
	}
	return rx.Run(&ctx.Counters)
}

// sendStream ships this node's chunk stream in group myGroups[gi] under
// the credit window.
func (w *worker) sendStream(ctx *engine.Context, gi int) error {
	g := w.myGroups[gi]
	count, frameOf, err := w.chunkSource(gi)
	if err != nil {
		return err
	}
	ackTag := groupTag(tagChunkAck, g.ID, w.rank)
	gate := engine.CreditGate{Window: w.spec.Window, Await: func() error {
		for _, m := range g.Members {
			if m == w.rank {
				continue
			}
			if _, err := ctx.Ep.Recv(m, ackTag); err != nil {
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
		if _, err := ctx.Ep.Bcast(g.Members, w.rank, groupTag(tagMulticast, g.ID, w.rank), frame); err != nil {
			return fmt.Errorf("bcast send in %v: %w", g.Members, err)
		}
		gate.Sent()
		ctx.Counters.SentBytes += int64(len(frame))
		ctx.Counters.SentOps++
		ctx.Counters.ChunksSent++
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
			pkt, err := codec.EncodeGroupPacketChunk(w.store, g.Group, w.rank, w.spec.ChunkRows, c)
			if err != nil {
				return nil, fmt.Errorf("encode chunk %d in %v: %w", c, g.Members, err)
			}
			frame := codec.FrameChunk(uint32(c), last, pkt)
			codec.Recycle(pkt)
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

// decodeStage recovers, for every group M containing this node, the
// segments of the intermediate value this node needs (its Need file) from
// the received coded packets (Algorithm 2). Groups decode concurrently —
// each reads only its own received packets and the read-only
// side-information store, and lands in its own slots.
func (w *worker) decodeStage(ctx *engine.Context) error {
	w.decoded = memberSlots[kv.Records](w.myGroups)
	return parallel.Do(ctx.Procs, len(w.myGroups), func(gi int) error {
		g := w.myGroups[gi]
		for i, u := range g.Members {
			if u == w.rank {
				continue
			}
			seg, err := codec.DecodeGroupPacket(w.store, g.Group, w.rank, u, w.received[gi][i])
			if err != nil {
				return fmt.Errorf("decode in %v from %d: %w", g.Members, u, err)
			}
			w.decoded[gi][i] = seg
		}
		return nil
	})
}

// reduceStage sorts partition `rank` (Section IV-F): the locally mapped
// share ({I^rank_S : rank in S}) followed by the decoded remote share
// ({I^rank_S : rank not in S}: per group, the segments in ascending sender
// order). The parts are ordered by reference where they lie and each record
// is copied once, into the output; equal keys keep that part order, rows
// ascending, at any Parallelism setting.
func (w *worker) reduceStage(ctx *engine.Context) error {
	var parts []kv.Records
	for _, fi := range w.stored {
		parts = append(parts, w.store.IV(w.rank, w.plan.Files[fi]))
	}
	for _, segs := range w.decoded {
		parts = append(parts, segs...)
	}
	var order kv.Order
	order.Sort(ctx.Procs, parts...)
	out := order.Gather(kv.MakeRecords(order.Len()), 0, order.Len())
	w.result.OutputRows = int64(out.Len())
	w.result.OutputChecksum = out.Checksum()
	if sink := w.cfg.OutputSink; sink != nil {
		return sink(out)
	}
	w.result.Output = out
	return nil
}

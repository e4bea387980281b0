package simnet

import (
	"fmt"
	"math"
	"time"

	"codedterasort/internal/codec"
	"codedterasort/internal/combin"
	"codedterasort/internal/kv"
	"codedterasort/internal/placement"
	"codedterasort/internal/stats"
)

// Workload describes one simulated sorting job.
type Workload struct {
	// Rows is the full-scale input size in records (the paper: 120 M
	// records = 12 GB).
	Rows int64
	// K is the number of worker nodes.
	K int
	// R is the redundancy parameter; ignored when Coded is false.
	R int
	// Placement names the placement/coding strategy for coded workloads:
	// ""/clique for the paper's scheme, resolvable for the
	// resolvable-design scheme. Ignored when Coded is false.
	Placement placement.Kind
	// Coded selects CodedTeraSort; false simulates conventional TeraSort.
	Coded bool
	// ParallelShuffle models the paper's "Asynchronous Execution" future
	// direction: all nodes transmit concurrently on their own links, so
	// shuffle time is the maximum per-node egress occupancy instead of
	// the serial global sum.
	ParallelShuffle bool
	// ChunkRows, when positive, models the streaming pipelined shuffle:
	// each stream is split into ceil(rows/ChunkRows) chunk messages (each
	// paying the per-message overhead and per-chunk framing bytes), and
	// Pack/Encode, Shuffle and Unpack/Decode overlap — the combined wall
	// time is the longest of the three plus a fill/drain residue of one
	// chunk per stage, reported under Shuffle with Pack and Unpack zeroed.
	// The credit window bounds memory, not time, so it has no model knob.
	ChunkRows int
	// Seed is accepted for interface symmetry with the live engines; the
	// simulator is distribution-exact (uniform keys), so the seed does not
	// change its output.
	Seed uint64
}

func (w Workload) normalize() (Workload, error) {
	if w.K <= 0 || w.K > combin.MaxNodes {
		return w, fmt.Errorf("simnet: K=%d out of range", w.K)
	}
	if !w.Coded {
		w.R = 1
	}
	if w.R < 1 || w.R > w.K {
		return w, fmt.Errorf("simnet: r=%d outside [1,%d]", w.R, w.K)
	}
	if w.Rows <= 0 {
		return w, fmt.Errorf("simnet: Rows=%d", w.Rows)
	}
	if w.ChunkRows < 0 {
		return w, fmt.Errorf("simnet: negative ChunkRows")
	}
	kind, err := placement.ParseKind(string(w.Placement))
	if err != nil {
		return w, fmt.Errorf("simnet: %w", err)
	}
	if !w.Coded && kind != placement.KindClique {
		return w, fmt.Errorf("simnet: %s placement requires a coded workload", kind)
	}
	w.Placement = kind
	return w, nil
}

// Report carries the exact counts behind a simulated breakdown.
type Report struct {
	// ShuffledBytes is the total payload crossing the network, counting
	// each multicast packet once (the paper's communication load).
	ShuffledBytes float64
	// Messages is the number of unicast messages (TeraSort shuffle).
	Messages int64
	// Multicasts is the number of coded-packet multicasts.
	Multicasts int64
	// Groups is the multicast group count of the placement strategy:
	// C(K, r+1) for clique, q^r - q^(r-1) for resolvable.
	Groups int64
}

// Simulate computes the full-scale stage breakdown of the workload under
// the cost model, plus the exact communication counts.
//
// The combinatorial structure is exact: the real placement plans supply
// per-file row counts, and every unicast message and multicast group is
// enumerated individually with the same colex ordering as the live
// engines. Per-partition record counts use the uniform-hashing expectation
// fileRows/K; at the paper's scale (hundreds of thousands of records per
// file) the multinomial fluctuation around that expectation is below one
// percent, far inside the cost model's own tolerance. The live engine in
// internal/coded validates the byte-level protocol on real data; this
// simulator extrapolates its timing to EC2 scale.
func Simulate(w Workload, cm CostModel) (stats.Breakdown, Report, error) {
	w, err := w.normalize()
	if err != nil {
		return stats.Breakdown{}, Report{}, err
	}
	if w.Coded {
		return simulateCoded(w, cm)
	}
	return simulateTeraSort(w, cm)
}

// simulateTeraSort models Section III's five stages over the exact
// single-placement plan.
func simulateTeraSort(w Workload, cm CostModel) (stats.Breakdown, Report, error) {
	plan, err := placement.Single(w.K, w.Rows)
	if err != nil {
		return stats.Breakdown{}, Report{}, err
	}
	var rep Report
	var b stats.Breakdown
	recvBytes := make([]float64, w.K)
	sendTime := make([]time.Duration, w.K)
	var maxMap, maxPack time.Duration
	maxStreamChunks := 1
	for node := 0; node < w.K; node++ {
		fileRows := float64(plan.FileRowCount(node))
		fileBytes := fileRows * kv.RecordSize
		if d := perGB(fileBytes, cm.MapSecPerGB); d > maxMap {
			maxMap = d
		}
		ivBytes := fileBytes / float64(w.K) // per destination partition
		var packBytes float64
		for dst := 0; dst < w.K; dst++ {
			if dst == node {
				continue
			}
			chunks := streamChunks(fileRows/float64(w.K), w.ChunkRows)
			if chunks > maxStreamChunks {
				maxStreamChunks = chunks
			}
			// Chunking pays the per-message overhead and the pack+chunk
			// framing once per chunk instead of once per stream.
			msg := ivBytes + float64(chunks)*streamOverhead(w.ChunkRows, codec.PackedSize(0))
			packBytes += msg
			sendTime[node] += time.Duration(chunks) * cm.WireTime(msg/float64(chunks))
			rep.Messages += int64(chunks)
			rep.ShuffledBytes += msg
			recvBytes[dst] += msg
		}
		if d := perGB(packBytes, cm.PackSecPerGB); d > maxPack {
			maxPack = d
		}
	}
	b[stats.StageShuffle] = scheduleTime(sendTime, w.ParallelShuffle)
	b[stats.StageMap] = maxMap
	b[stats.StagePack] = maxPack
	reduceBytes := float64(w.Rows) * kv.RecordSize / float64(w.K)
	for node := 0; node < w.K; node++ {
		if d := perGB(recvBytes[node], cm.UnpackSecPerGB); d > b[stats.StageUnpack] {
			b[stats.StageUnpack] = d
		}
	}
	b[stats.StageReduce] = perGB(reduceBytes, cm.ReduceSecPerGB)
	if w.ChunkRows > 0 {
		overlapPipeline(&b, maxStreamChunks)
	}
	return b, rep, nil
}

// streamChunks returns the chunk count of one stream of `rows` records, at
// least one (empty streams still close with one last-flagged chunk).
func streamChunks(rows float64, chunkRows int) int {
	if chunkRows <= 0 {
		return 1
	}
	c := int(math.Ceil(rows / float64(chunkRows)))
	if c < 1 {
		c = 1
	}
	return c
}

// streamOverhead is the per-chunk framing cost in bytes: the inner payload
// header (pack header for unicast, coded frame header for multicast) plus
// the chunk header. Unchunked streams pay the inner header once.
func streamOverhead(chunkRows, innerHeader int) float64 {
	if chunkRows <= 0 {
		return float64(innerHeader)
	}
	return float64(codec.ChunkFrameSize(innerHeader))
}

// overlapPipeline folds the Pack, Shuffle and Unpack occupancies into the
// overlapped wall time of the streaming pipeline: the longest of the three
// stays fully busy while the other two hide behind it, except for the
// pipeline fill and drain — one chunk's worth of each hidden stage, i.e.
// their serial total divided by the per-stream chunk count. The combined
// time is charged to Shuffle; Pack and Unpack are zeroed, matching how the
// live pipelined engines report.
func overlapPipeline(b *stats.Breakdown, chunksPerStream int) {
	pack, shuffle, unpack := b[stats.StagePack], b[stats.StageShuffle], b[stats.StageUnpack]
	max := pack
	if shuffle > max {
		max = shuffle
	}
	if unpack > max {
		max = unpack
	}
	sum := pack + shuffle + unpack
	residue := (sum - max) / time.Duration(chunksPerStream)
	b[stats.StagePack] = 0
	b[stats.StageUnpack] = 0
	b[stats.StageShuffle] = max + residue
}

// scheduleTime folds per-node egress occupancies into a stage time:
// the serial schedule of Fig 9 transmits one message at a time cluster-wide
// (sum); the asynchronous variant overlaps all egress links (max).
func scheduleTime(sendTime []time.Duration, parallel bool) time.Duration {
	var total, max time.Duration
	for _, d := range sendTime {
		total += d
		if d > max {
			max = d
		}
	}
	if parallel {
		return max
	}
	return total
}

// simulateCoded models Section IV's six stages over the exact redundant
// placement plan and group enumeration of the selected strategy.
func simulateCoded(w Workload, cm CostModel) (stats.Breakdown, Report, error) {
	strat, err := placement.New(w.Placement, w.K, w.R)
	if err != nil {
		return stats.Breakdown{}, Report{}, err
	}
	plan, err := strat.Plan(w.Rows)
	if err != nil {
		return stats.Breakdown{}, Report{}, err
	}
	var rep Report
	rep.Groups = strat.NumGroups()
	var b stats.Breakdown

	// CodeGen: per-group communicator setup (MPI_Comm_split equivalent).
	b[stats.StageCodeGen] = time.Duration(rep.Groups) * cm.GroupSetup

	// Map: every node hashes the files the strategy places on it.
	var maxMap time.Duration
	for node := 0; node < w.K; node++ {
		mapBytes := float64(plan.StoredRows(node) * kv.RecordSize)
		if d := perGB(mapBytes, cm.MapSecPerGB); d > maxMap {
			maxMap = d
		}
	}
	b[stats.StageMap] = maxMap

	// Encode, Multicast Shuffle and Decode: enumerate every group and
	// every coded packet. The packet of member u in group g is padded to
	// its widest contributing segment: max over the other members j of the
	// segment of I^j_{Need[j]} assigned to u, each IV being fileRows/K
	// records split into |g|-1 segments.
	encodeVol := make([]float64, w.K)
	decodeVol := make([]float64, w.K)
	sendTime := make([]time.Duration, w.K)
	maxStreamChunks := 1
	strat.EachGroup(func(g placement.Group) bool {
		nseg := float64(len(g.Members) - 1)
		for iu, u := range g.Members {
			var maxSeg float64
			for j := range g.Members {
				if j == iu {
					continue
				}
				file := plan.FileIndex(g.Need[j])
				ivBytes := float64(plan.FileRowCount(file)) * kv.RecordSize / float64(w.K)
				if seg := ivBytes / nseg; seg > maxSeg {
					maxSeg = seg
				}
			}
			chunks := streamChunks(maxSeg/kv.RecordSize, w.ChunkRows)
			if chunks > maxStreamChunks {
				maxStreamChunks = chunks
			}
			width := maxSeg + float64(chunks)*streamOverhead(w.ChunkRows, codec.FrameSize(0))
			rep.Multicasts += int64(chunks)
			rep.ShuffledBytes += width
			sendTime[u] += time.Duration(chunks) * cm.MulticastTime(width/float64(chunks), len(g.Members)-1)
			encodeVol[u] += width * nseg
			for _, k := range g.Members {
				if k != u {
					decodeVol[k] += width * nseg
				}
			}
		}
		return true
	})
	b[stats.StageShuffle] = scheduleTime(sendTime, w.ParallelShuffle)
	var maxEnc, maxDec time.Duration
	for node := 0; node < w.K; node++ {
		if d := perGB(encodeVol[node], cm.EncodeSecPerGB); d > maxEnc {
			maxEnc = d
		}
		if d := perGB(decodeVol[node], cm.DecodeSecPerGB); d > maxDec {
			maxDec = d
		}
	}
	b[stats.StagePack] = maxEnc
	b[stats.StageUnpack] = maxDec
	if w.ChunkRows > 0 {
		overlapPipeline(&b, maxStreamChunks)
	}

	// Reduce: every node sorts its full 1/K partition, inflated by the
	// coded memory penalty (Section V-C).
	penalty := 1 + cm.ReduceMemPenalty*float64(w.R)
	reduceBytes := float64(w.Rows) * kv.RecordSize / float64(w.K)
	b[stats.StageReduce] = time.Duration(float64(perGB(reduceBytes, cm.ReduceSecPerGB)) * penalty)
	return b, rep, nil
}

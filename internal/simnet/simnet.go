package simnet

import (
	"fmt"
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
			msg := ivBytes + float64(codec.PackedSize(0))
			packBytes += msg
			sendTime[node] += cm.WireTime(msg)
			rep.Messages++
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
	return b, rep, nil
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
			width := maxSeg + float64(codec.FrameSize(0))
			rep.Multicasts++
			rep.ShuffledBytes += width
			sendTime[u] += cm.MulticastTime(width, len(g.Members)-1)
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

	// Reduce: every node sorts its full 1/K partition, inflated by the
	// coded memory penalty (Section V-C).
	penalty := 1 + cm.ReduceMemPenalty*float64(w.R)
	reduceBytes := float64(w.Rows) * kv.RecordSize / float64(w.K)
	b[stats.StageReduce] = time.Duration(float64(perGB(reduceBytes, cm.ReduceSecPerGB)) * penalty)
	return b, rep, nil
}

package cluster

import (
	"fmt"
	"slices"
	"testing"
)

// jobCorpus is FuzzJob's seed corpus: seeds whose draws, together, hold
// every cell TestJobCorpusCells requires, and the seeds of fixed defects.
var jobCorpus = []uint64{
	6718, 7098, 8669, 10253, 11372, 11763, 12306, 12934, 14237, 17822,
	21233, 23699, 27841, 28182, 29846, 31306, 32061, 32999, 33386, 35952,
	39986, 40276, 44078, 44124, 47642, 49940, 50258, 50867, 60142, 61058,
	63919, 75471, 76866, 78646, 79444, 79596, 87424, 88632, 95067, 96260,
	100701, 104294, 105476, 108284, 110535, 114979, 117180, 119968, 121731, 132212,
	133386, 133406, 134767, 135675, 137809, 140712, 142920, 144115, 146530, 148691,
	158296, 162749, 162867, 171007, 176565, 181324, 182791, 184078, 185784, 193822,
	200010, 200932, 212165, 212781, 212956, 213956, 218466, 220524, 225572, 225977,
	230591, 232082, 232126, 233890, 237449, 239100, 241346, 242492, 246187, 248636,
	249651, 250046, 251472, 251734, 256616, 257707, 258852, 259748, 263600, 265083,
	268188, 270000, 270703, 271832, 273960, 283093, 286576, 288227, 289227, 292165,
	293479, 295936, 296028,
	// A kill at CodeGen of an out-of-core coded job over TCP.
	4470,
	// A peer killed during an out-of-core shuffle once left a spill run in
	// the directory its rank was removing (4 runs in 600 of this seed, on a
	// loaded host).
	401262,
	// Kills at Map of monolithic jobs: a draw picks its fault column by
	// index, and the monolithic schedule lost its Unpack/Decode column when
	// decoding moved into the Shuffle.
	32, 818,
	// Kills at CodeGen of monolithic coded jobs, in memory and over TCP:
	// the monolithic schedule lost its Pack/Encode column when encoding
	// moved into the Shuffle.
	83, 5329,
}

// TestJobCorpusCells runs no job: it checks that the seed corpus draws
// every cell of the grid the hand-written equivalence tests once pinned,
// and names a seed for a missing cell.
func TestJobCorpusCells(t *testing.T) {
	have := map[string]bool{}
	for _, seed := range jobCorpus {
		for _, c := range drawJob(seed).cells() {
			have[c] = true
		}
	}
	var firstSeed map[string]uint64
	for _, c := range requiredCells() {
		t.Run(c, func(t *testing.T) {
			if have[c] {
				return
			}
			if firstSeed == nil {
				firstSeed = map[string]uint64{}
				for seed := uint64(1); seed <= 200_000; seed++ {
					for _, c := range drawJob(seed).cells() {
						if _, ok := firstSeed[c]; !ok {
							firstSeed[c] = seed
						}
					}
				}
			}
			t.Fatalf("no seed of the corpus draws it; seed %d does (0: none below 200 000)", firstSeed[c])
		})
	}
}

// requiredCells is the grid the corpus must cover:
//   - a kill at each column of the schedule × {terasort, coded} × {mono,
//     chunked, out-of-core} × {memnet, TCP}, each against a clean twin;
//   - a slow rank past its deadline of each algorithm, and a second fault
//     that strikes the recovery attempt, on each transport;
//   - a local in-memory job (whose ranks alias its input files) at r 1–3,
//     monolithic and chunked, and recovered;
//   - each distribution under uniform partitioning, and × each mode under
//     sampled partitioning;
//   - output kept in process, in each mode;
//   - each placement × each mode × Parallelism {0, 2};
//   - chunk sizes {33, 512, 1<<20} × windows {1, 2, 16};
//   - budgets {1 B, 16 KiB, 64 MiB};
//   - InputDir in memory and out of core, preset splitters, the TCP
//     per-worker Parallelism override, a clean and a recovered TCP job
//     under a deadline (heartbeats and watchdog armed), a
//     rate-shaped straggler and a factor below one (no straggler), and a
//     recovered in-memory job on keys that repeat;
//   - the coded load at the six (K, r) cells of K ∈ {4, 6, 8}, even r < K;
//   - coded r ∈ 1..4 under each shuffle schedule;
//   - each deployment; a Parallelism twin and a schedule twin of each
//     algorithm in each mode, and the deployment twins local→TCP and
//     TCP→local;
//   - the edges: fewer than 1 000 rows, one rank, and nothing to shuffle.
//
// Only the deployment, twin and edge cells count a job that moves no
// real data.
func requiredCells() []string {
	var cells []string
	add := func(format string, args ...any) { cells = append(cells, fmt.Sprintf(format, args...)) }
	modes := []Spec{{}, {ChunkRows: 64}, {MemBudget: 1 << 20}}
	for _, alg := range []Spec{{Algorithm: AlgTeraSort, K: 4}, {Algorithm: AlgCoded, K: 4, R: 2}} {
		for _, mode := range modes {
			s := alg
			s.ChunkRows, s.MemBudget = mode.ChunkRows, mode.MemBudget
			for _, net := range []string{"memnet", "tcp"} {
				for _, col := range jobColumns(s) {
					add("kill %s %s %s at %v", s.Algorithm, modeName(s), net, col)
				}
			}
		}
	}
	for _, net := range []string{"memnet", "tcp"} {
		add("slow %s %s", AlgTeraSort, net)
		add("slow %s %s", AlgCoded, net)
		add("second fault %s", net)
	}
	for r := 1; r <= 3; r++ {
		add("read-only mono r=%d", r)
		add("read-only chunked r=%d", r)
	}
	add("read-only recovered")
	for _, dist := range jobDists {
		add("uniform-partitioned %s", distName(dist))
	}
	for _, mode := range modes {
		add("kept %s", modeName(mode))
		for _, dist := range jobDists {
			add("sampled %s %s", distName(dist), modeName(mode))
		}
		for _, placement := range []string{"clique", "resolvable"} {
			for _, procs := range []int{0, 2} {
				add("%s %s procs=%d", placement, modeName(mode), procs)
			}
		}
	}
	for _, chunk := range []int{33, 512, 1 << 20} {
		for _, window := range []int{1, 2, 16} {
			add("chunk=%d window=%d", chunk, window)
		}
	}
	for _, budget := range []int{1, 16 << 10, 64 << 20} {
		add("budget=%d", budget)
	}
	add("input dir in memory")
	add("input dir out-of-core")
	add("preset splitters")
	add("tcp worker parallelism override")
	add("straggler")
	add("straggler factor below one")
	add("clean tcp under a deadline")
	add("recovered tcp under a deadline")
	add("recovered ties mono")
	for k := 4; k <= 8; k += 2 {
		for r := 2; r < k; r += 2 {
			add("load K=%d r=%d", k, r)
		}
	}
	for r := 1; r <= 4; r++ {
		for _, parallel := range []bool{false, true} {
			add("coded r=%d parallel=%v", r, parallel)
		}
	}
	for _, alg := range []Algorithm{AlgTeraSort, AlgCoded} {
		for _, mode := range modes {
			add("twin procs %s %s", alg, modeName(mode))
			add("twin schedule %s %s", alg, modeName(mode))
		}
	}
	for _, pair := range [][2]string{{"local", "tcp"}, {"tcp", "local"}} {
		add("deploy %s", pair[0])
		add("twin deploy %s to %s", pair[0], pair[1])
	}
	for _, edge := range []string{"rows<1000", "K=1", "r=K"} {
		add("edge %s", edge)
	}
	return cells
}

// cells names the cells of requiredCells a draw holds.
func (d jobDraw) cells() []string {
	var cells []string
	add := func(format string, args ...any) { cells = append(cells, fmt.Sprintf(format, args...)) }
	s, mode := d.Spec, modeName(d.Spec)
	add("deploy %s", d.Deploy)
	// Every other cell wants a job that shuffles real data.
	switch {
	case s.Rows < 1000:
		add("edge rows<1000")
		return cells
	case s.K == 1:
		add("edge K=1")
		return cells
	case s.Algorithm == AlgCoded && s.R == s.K:
		add("edge r=K")
		return cells
	}
	net := "memnet"
	if d.Deploy == "tcp" {
		net = "tcp"
	}
	// A fault counts where the twin runs the job clean and both runs'
	// outputs are seen, so recovery is held to a healthy run byte for byte.
	if d.Twin == "faults" {
		faults := slices.Concat(s.Faults, d.twin().Spec.Faults)
		for _, f := range faults {
			add("%s %s %s %s at %s", f.Kind, s.Algorithm, mode, net, f.Stage)
			add("%s %s %s", f.Kind, s.Algorithm, net)
		}
		if len(faults) == 2 {
			add("second fault %s", net)
		}
		if s.DistName == "dupheavy" && s.MemBudget == 0 {
			add("recovered ties %s", mode)
		}
	}
	if s.Sampled() {
		add("sampled %s %s", distName(s.DistName), mode)
	} else {
		add("uniform-partitioned %s", distName(s.DistName))
	}
	if s.KeepOutput && d.Deploy != "tcp" {
		add("kept %s", mode)
	}
	if s.Algorithm == AlgCoded && s.R >= 2 {
		placement := s.Placement
		if placement == "" {
			placement = "clique"
		}
		add("%s %s procs=%d", placement, mode, s.Parallelism)
	}
	if s.MemBudget == 0 && s.ChunkRows > 0 {
		add("chunk=%d window=%d", s.ChunkRows, s.Window)
	}
	if s.MemBudget > 0 {
		add("budget=%d", s.MemBudget)
	}
	if d.InputDir {
		add("input dir %s", map[bool]string{true: "out-of-core", false: "in memory"}[s.MemBudget > 0])
	}
	if d.Preset {
		add("preset splitters")
	}
	if d.WorkerProcs > 0 {
		add("tcp worker parallelism override")
	}
	switch {
	case s.StragglerFactor > 1:
		add("straggler")
	case s.StragglerFactor > 0:
		add("straggler factor below one")
	}
	if d.Deploy == "tcp" && d.Deadline {
		add("%s tcp under a deadline", map[bool]string{true: "recovered", false: "clean"}[len(s.Faults) > 0])
	}
	// Locally run in-memory jobs alias their input files.
	if d.Deploy == "local" && s.MemBudget == 0 {
		add("read-only %s r=%d", mode, s.Redundancy())
		if len(s.Faults) > 0 {
			add("read-only recovered")
		}
	}
	if s.Algorithm == AlgCoded && s.Placement == "" && s.DistName == "" && !s.Sampled() && s.Rows >= 24000 {
		add("load K=%d r=%d", s.K, s.R)
	}
	if s.Algorithm == AlgCoded {
		add("coded r=%d parallel=%v", s.R, s.ParallelShuffle)
	}
	switch d.Twin {
	case "procs", "schedule":
		add("twin %s %s %s", d.Twin, s.Algorithm, mode)
	case "deploy":
		add("twin deploy %s to %s", d.Deploy, d.twin().Deploy)
	}
	return cells
}

// modeName names a spec's execution mode.
func modeName(s Spec) string {
	switch {
	case s.MemBudget > 0:
		return "out-of-core"
	case s.ChunkRows > 0:
		return "chunked"
	}
	return "mono"
}

func distName(name string) string {
	if name == "" {
		return "uniform"
	}
	return name
}

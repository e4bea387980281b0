package coded

import (
	"fmt"
	"testing"
	"time"

	"codedterasort/internal/codec"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/stats"
)

// rankGolden is one rank's output digest, shuffle payload bytes and chunk
// count as internal/terasort's Run reported them at the last commit that
// had it (367bfdb), for the same configuration.
type rankGolden struct {
	checksum uint64
	bytes    int64
	chunks   int64
}

// terasortGolden holds, per (K, mode, input) cell of
// TestRedundancyOneIsTeraSort, what the deleted uncoded engine produced.
var terasortGolden = []struct {
	k     int
	mode  string
	input string
	ranks []rankGolden
}{
	{2, "mono", "uniform", []rankGolden{{0x9173b8e01dea8c3d, 73904, 0}, {0x62fddc613698e659, 73504, 0}}},
	{2, "mono", "zipf", []rankGolden{{0x49b38ca977cb704e, 72204, 0}, {0xb131cf68749d2e2, 72204, 0}}},
	{2, "chunked", "uniform", []rankGolden{{0x9173b8e01dea8c3d, 74056, 12}, {0x62fddc613698e659, 73656, 12}}},
	{2, "chunked", "zipf", []rankGolden{{0x49b38ca977cb704e, 72356, 12}, {0xb131cf68749d2e2, 72356, 12}}},
	{2, "spill", "uniform", []rankGolden{{0x9173b8e01dea8c3d, 74511, 47}, {0x62fddc613698e659, 74098, 46}}},
	{2, "spill", "zipf", []rankGolden{{0x49b38ca977cb704e, 72798, 46}, {0xb131cf68749d2e2, 72798, 46}}},
	{4, "mono", "uniform", []rankGolden{{0xeb5d5b7fc2790fc3, 56312, 0}, {0xa6165d605b717c7a, 56112, 0}, {0xfb828fec12d9a486, 55512, 0}, {0x677b4c7523bf41d3, 55912, 0}}},
	{4, "mono", "zipf", []rankGolden{{0x56e4204aa1774929, 56112, 0}, {0xf2cf6c5ed6542725, 56512, 0}, {0xac02fe31e01e9a86, 55212, 0}, {0x5f101ec4a72b385c, 55712, 0}}},
	{4, "chunked", "uniform", []rankGolden{{0xeb5d5b7fc2790fc3, 56430, 10}, {0xa6165d605b717c7a, 56217, 9}, {0xfb828fec12d9a486, 55617, 9}, {0x677b4c7523bf41d3, 56030, 10}}},
	{4, "chunked", "zipf", []rankGolden{{0x56e4204aa1774929, 56230, 10}, {0xf2cf6c5ed6542725, 56643, 11}, {0xac02fe31e01e9a86, 55330, 10}, {0x5f101ec4a72b385c, 55817, 9}}},
	{4, "spill", "uniform", []rankGolden{{0xeb5d5b7fc2790fc3, 56781, 37}, {0xa6165d605b717c7a, 56568, 36}, {0xfb828fec12d9a486, 55968, 36}, {0x677b4c7523bf41d3, 56381, 37}}},
	{4, "spill", "zipf", []rankGolden{{0x56e4204aa1774929, 56568, 36}, {0xf2cf6c5ed6542725, 56981, 37}, {0xac02fe31e01e9a86, 55668, 36}, {0x5f101ec4a72b385c, 56168, 36}}},
	{5, "mono", "uniform", []rankGolden{{0x786bdc4ba2d5f27, 48516, 0}, {0x8f25c66ead57a0f, 47816, 0}, {0xca230627a7ccc819, 49316, 0}, {0xd00b162e97f0255f, 47016, 0}, {0x49ca5ebf6fc3abe8, 48316, 0}}},
	{5, "mono", "zipf", []rankGolden{{0xb0169eaaa8c5b0dd, 48116, 0}, {0x3b4175cb34274ba0, 47616, 0}, {0x4886406a3f4a9004, 47616, 0}, {0x802ce38b59ea4342, 47416, 0}, {0xa0bb713488f3736d, 47616, 0}}},
	{5, "chunked", "uniform", []rankGolden{{0x786bdc4ba2d5f27, 48617, 9}, {0x8f25c66ead57a0f, 47930, 10}, {0xca230627a7ccc819, 49417, 9}, {0xd00b162e97f0255f, 47104, 8}, {0x49ca5ebf6fc3abe8, 48417, 9}}},
	{5, "chunked", "zipf", []rankGolden{{0xb0169eaaa8c5b0dd, 48217, 9}, {0x3b4175cb34274ba0, 47717, 9}, {0x4886406a3f4a9004, 47717, 9}, {0x802ce38b59ea4342, 47517, 9}, {0xa0bb713488f3736d, 47717, 9}}},
	{5, "spill", "uniform", []rankGolden{{0x786bdc4ba2d5f27, 48929, 33}, {0x8f25c66ead57a0f, 48216, 32}, {0xca230627a7ccc819, 49729, 33}, {0xd00b162e97f0255f, 47403, 31}, {0x49ca5ebf6fc3abe8, 48729, 33}}},
	{5, "spill", "zipf", []rankGolden{{0xb0169eaaa8c5b0dd, 48516, 32}, {0x3b4175cb34274ba0, 48016, 32}, {0x4886406a3f4a9004, 48016, 32}, {0x802ce38b59ea4342, 47816, 32}, {0xa0bb713488f3736d, 48016, 32}}},
}

// modeConfig applies one of the three execution modes to a base config.
func modeConfig(t *testing.T, cfg Config, mode string) Config {
	switch mode {
	case "chunked":
		cfg.ChunkRows = 64
	case "spill":
		cfg.MemBudget, cfg.SpillDir = 16*1024, t.TempDir()
	}
	return cfg
}

// TestRedundancyOneIsTeraSort pins the r = 1 endpoint of the engine to the
// uncoded baseline it replaced: per-rank output equals an engine-free
// sequential oracle and the deleted engine's digests, the shuffle moves
// exactly the packed size of every remote intermediate value (and, chunked
// or spooled, the deleted engine's exact bytes and chunk counts), every
// node is in K-1 two-member groups, no CodeGen time is charged, and the
// out-of-core Map keeps no intermediate value in memory.
func TestRedundancyOneIsTeraSort(t *testing.T) {
	const rows, seed = 3000, 13
	for _, cell := range terasortGolden {
		k := cell.k
		t.Run(fmt.Sprintf("k=%d/%s/%s", k, cell.mode, cell.input), func(t *testing.T) {
			cfg := modeConfig(t, cfgOf(job.Spec{K: k, R: 1, Rows: rows, Seed: seed}), cell.mode)
			var part partition.Partitioner = partition.NewUniform(k)
			if cell.input == "zipf" {
				cfg.DistName, cfg.Partitioning = "zipf", "sample"
			}
			all := kv.NewGenerator(seed, cfg.Dist()).Generate(0, rows)
			if cell.input == "zipf" {
				// Replay the sampler: every stride-th row of the input,
				// splitters from the sampled keys.
				var keys []byte
				for g := int64(0); g < rows; g += partition.SampleStride(rows, 0) {
					keys = append(keys, all.Key(int(g))...)
				}
				bounds, err := partition.SelectSplitters(keys, k)
				if err != nil {
					t.Fatal(err)
				}
				if part, err = partition.NewSplitters(bounds); err != nil {
					t.Fatal(err)
				}
			}
			// The oracle: partition every row by key, sort each partition;
			// a rank's file is its contiguous share of the rows, and each
			// of its remote intermediate values travels packed.
			want := make([]kv.Records, k)
			wantSent := make([]int64, k)
			fileBounds := kv.SplitRows(rows, k)
			for src := 0; src < k; src++ {
				remote := make([]int, k)
				for row := fileBounds[src]; row < fileBounds[src+1]; row++ {
					dst := part.Partition(all.Key(int(row)))
					want[dst] = want[dst].Append(all.Record(int(row)))
					remote[dst]++
				}
				for dst, n := range remote {
					if dst != src {
						wantSent[src] += int64(codec.PackedSize(n))
					}
				}
			}

			for rank, w := range runWorkers(t, cfg, nil, nil, nil) {
				res, gold := w.result, cell.ranks[rank]
				want[rank].Sort()
				if !res.Output.Equal(want[rank]) {
					t.Fatalf("rank %d: output differs from the sequential oracle", rank)
				}
				if sum := res.Output.Checksum(); sum != gold.checksum || res.SentBytes != gold.bytes || res.ChunksSent != gold.chunks {
					t.Fatalf("rank %d: (checksum %#x, %d bytes, %d chunks), terasort.Run gave (%#x, %d, %d)",
						rank, sum, res.SentBytes, res.ChunksSent, gold.checksum, gold.bytes, gold.chunks)
				}
				if cell.mode == "mono" && res.SentBytes != wantSent[rank] {
					t.Fatalf("rank %d sent %d bytes, want the packed remote IVs' %d", rank, res.SentBytes, wantSent[rank])
				}
				if res.Groups != k-1 {
					t.Fatalf("rank %d in %d groups, want %d", rank, res.Groups, k-1)
				}
				if res.Times[stats.StageCodeGen] != 0 {
					t.Fatalf("rank %d charged %v to CodeGen", rank, res.Times[stats.StageCodeGen])
				}
				if ivs, _ := w.store.(codec.IVMap); cell.mode == "spill" && len(ivs) != 0 {
					t.Fatalf("rank %d kept %d intermediate values in memory after the out-of-core Map", rank, len(ivs))
				}
			}
		})
	}
}

// filesPlacedClock is an injected clock that reads, as its time, how many
// of a worker's stored files have been materialized: a timed stage that
// generates input advances it.
type filesPlacedClock struct{ w *worker }

func (c filesPlacedClock) Now() time.Duration { return time.Duration(len(c.w.files)) }

// TestStageAccountingIsRedundancyFree: in every mode the hooks observe the
// one column sequence every mode runs (each encodes and decodes inside its
// Shuffle), the same at R = 1 and R = 2 apart from a
// leading CodeGen exactly when groups have more than two members (R = 2
// at K = 4), and the same for sampled runs as for unsampled ones; and in
// the in-memory modes input generation advances no timed stage for either
// R — it lives in the untimed Place stage. Columns lists the same
// sequence without running the job.
func TestStageAccountingIsRedundancyFree(t *testing.T) {
	sequence := []stats.Stage{stats.StageMap, stats.StageShuffle, stats.StageReduce}
	for _, mode := range []string{"mono", "chunked", "spill"} {
		for _, r := range []int{1, 2} {
			for _, partitioning := range []string{"", "sample"} {
				var want []stats.Stage
				if r == 2 {
					want = append(want, stats.StageCodeGen)
				}
				want = append(want, sequence...)
				spec := job.Spec{K: 4, R: r, Rows: 2000, Seed: 3, Partitioning: partitioning}
				cfg := modeConfig(t, cfgOf(spec), mode)
				var events []StageEvent
				workers := runWorkers(t, cfg, func(rank int, c *Config) {
					if rank == 0 {
						c.Hooks = func(ev StageEvent) { events = append(events, ev) }
					}
				}, func(w *worker) stats.Clock { return filesPlacedClock{w} }, nil)
				var got []stats.Stage
				for _, ev := range events {
					if ev.Elapsed != 0 {
						t.Fatalf("%s r=%d: %v stage materialized %d input files", mode, r, ev.Stage, ev.Elapsed)
					}
					got = append(got, ev.Stage)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s r=%d partitioning=%q: timed stages %v, want %v", mode, r, partitioning, got, want)
				}
				resolved, err := cfg.Resolve(cfg.Local)
				if err != nil {
					t.Fatal(err)
				}
				if cols := Columns(resolved); fmt.Sprint(cols) != fmt.Sprint(want) {
					t.Fatalf("%s r=%d: Columns %v, want the observed %v", mode, r, cols, want)
				}
				// The probe is live: the in-memory modes did place the files.
				if placed := len(workers[0].files); (placed > 0) != (mode != "spill") {
					t.Fatalf("%s r=%d: %d files placed", mode, r, placed)
				}
			}
		}
	}
}

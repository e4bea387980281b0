package extsort

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"testing"

	"codedterasort/internal/kv"
)

// goldenRuns pins the run files a Sorter writes — seed 2017, a budget of
// 6007 records, 30 000 rows appended in uneven slices — to the SHA-256 of
// the bytes PR 15 (a record-moving LSD radix) spilled, one digest per
// run in spill order. Run generation is a stable sort by full key followed
// by compact framing, so any kernel that keeps that order keeps these
// files, and with them extsort.spill_amp, extsort.ovc_decided,
// SpilledDiskBytes and the terasortGolden spill cells. The runs depend on
// neither procs setting.
//
// The rows are uniform, skewed and duplicate-heavy keys: the three merge
// inputs whose on-disk spill bytes must not grow.
var goldenRuns = map[kv.Distribution][]string{
	kv.DistUniform: {
		"e34c4ff96683ab52d2f22e6c31cdc21cd3a682e07bb7450ffc1aa5c5332f30c1",
		"fe49e82c03e30e160d8454658117bc128dfe9cd62bd0756852856ee83d3701fe",
		"1de513d7f3516599309690cda222a1cd555a199215d406063d8e1dd4624b4919",
		"71bbebfa98296e71f800d6505f01ae780b49aa68a0328e7c8476463ad569e3ed",
		"2075406bc850d33e2b2bb15f3ee28aac17c7b25443bcbe9e3e48327c4810ffa1",
	},
	kv.DistSkewed: {
		"aaf5f00676b93f8fbfd697b19f513708db556e88e4b9328306b4c00ee979b59d",
		"972618bfc46e13afa66bbe815bd23b021bf917de29d26ec84ba2230d9ddcab1d",
		"50784e374c2213c34060b36ad3288ec33919c8186aacfd5e693f01d91e0303b0",
		"c23602123e1ef16de6280409117053b8a49457d8388fd32a617dca24e921a4cc",
		"2afd8432e3861922623ec3d9366349d5ffd6f0f08a25b270a6d1a91b65194915",
	},
	kv.DistDupHeavy: {
		"41aab198fe684be62a9cedc1c61ee416502545d94a03bc7e5b11e7ad6451eee5",
		"8b307dc2530e825f391a11708917fbe6574a6b37b0199d17e028083d9e59caa6",
		"ddc92bbef828cb0b52ba6098a2efc8f4943f69180b71dbb99bbb7aec8b23e964",
		"8be91fe7455d94d453a67307c08d72a3c7e588ceb2b5e142f9921dd8c7fbe510",
		"0205a014946c78740a95ff8999ef90a7af007bbd56fe94eb6bb35f042aa382ea",
	},
}

// goldenRunDigests drives the fixed append sequence and hashes every run
// file spilled, without merging.
func goldenRunDigests(t *testing.T, dist kv.Distribution, procs int) []string {
	t.Helper()
	input := kv.NewGenerator(2017, dist).Generate(0, 30000)
	s, err := NewSorter(t.TempDir(), 6007*kv.RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetParallelism(procs)
	for i := 0; i < input.Len(); {
		j := min(i+1+(i*13)%211, input.Len())
		if err := s.Append(input.Slice(i, j)); err != nil {
			t.Fatal(err)
		}
		i = j
	}
	var digests []string
	for _, path := range s.runs {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		digests = append(digests, hex.EncodeToString(sum[:]))
	}
	return digests
}

// TestRunFilesMatchGolden: the spilled runs are the parent's, byte for
// byte, at every goroutine budget.
func TestRunFilesMatchGolden(t *testing.T) {
	for dist, want := range goldenRuns {
		t.Run(dist.String(), func(t *testing.T) {
			for _, procs := range []int{1, 4} {
				got := goldenRunDigests(t, dist, procs)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%v procs=%d: run files changed\n got %q\nwant %q", dist, procs, got, want)
				}
			}
		})
	}
}

// allocatedBy returns the heap bytes fn allocates (on this goroutine or any
// it starts and waits for).
func allocatedBy(fn func()) int64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestSpillAllocatesNoRecordScratch: once the first run has sized the
// reference arrays and the run writer, spilling another full buffer
// allocates less than one block — whatever ordering and framing a run
// takes, none of it is scratch the size of the records.
func TestSpillAllocatesNoRecordScratch(t *testing.T) {
	const budget = 6007 * kv.RecordSize
	input := kv.NewGenerator(3, kv.DistUniform).Generate(0, 3*6007)
	for _, procs := range []int{1, 4} {
		s, err := NewSorter(t.TempDir(), budget)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.SetParallelism(procs)
		fill := func(run int) {
			t.Helper()
			if err := s.Append(input.Slice(run*6007, (run+1)*6007)); err != nil {
				t.Fatal(err)
			}
			if s.Runs() != run+1 {
				t.Fatalf("runs=%d after %d full buffers", s.Runs(), run+1)
			}
		}
		fill(0)
		block := int64(s.BlockRows() * kv.RecordSize)
		for run := 1; run <= 2; run++ {
			// (A run's own allocations: its path, its os.File and, at
			// procs > 1, per-shard histograms and goroutines.)
			if got, limit := allocatedBy(func() { fill(run) }), block+4<<10; got >= limit {
				t.Errorf("procs=%d: run %d allocated %d bytes, want < %d (buffer is %d)", procs, run, got, limit, budget)
			}
		}
	}
}

// TestDrainSortedSizesOutputOnce: materializing a budgeted sort's output
// allocates the partition once, not a doubling series of it — beyond the
// partition, only what the merge's run readers hold (two block buffers and
// the 64 KiB read buffer each) and the drain block.
func TestDrainSortedSizesOutputOnce(t *testing.T) {
	const rows = 60000
	input := kv.NewGenerator(9, kv.DistUniform).Generate(0, rows)
	s, err := NewSorter(t.TempDir(), 8000*kv.RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := input.ForEachBlock(s.BlockRows(), s.Append); err != nil {
		t.Fatal(err)
	}
	if s.Rows() != rows {
		t.Fatalf("Rows()=%d, want %d", s.Rows(), rows)
	}
	var out Output
	got := allocatedBy(func() { out, err = DrainSorted(s, s.BlockRows(), nil) })
	if err != nil {
		t.Fatal(err)
	}
	if out.Records.Len() != rows || !out.Records.IsSorted() || out.Checksum != input.Checksum() {
		t.Fatalf("drained %d rows, sorted=%v", out.Records.Len(), out.Records.IsSorted())
	}
	block := int64(s.BlockRows() * kv.RecordSize)
	limit := int64(input.Size())*11/10 + int64(s.Runs())*(2*block+64<<10) + block
	if got > limit {
		t.Errorf("DrainSorted allocated %d bytes for a %d-byte partition in %d runs, want <= %d", got, input.Size(), s.Runs(), limit)
	}
}

// BenchmarkRunGeneration is what extsort.rungen_mb_s probes: one reducer
// partition of the benchmark's uncoded_spill job (250 000 rows) appended
// block by block to a sorter at that job's budget (half of 1/8 of the
// rank's share), sequential run ordering, merge not included.
func BenchmarkRunGeneration(b *testing.B) {
	const rows = 250000
	part := kv.NewGenerator(1, kv.DistUniform).Generate(0, rows)
	b.SetBytes(int64(part.Size()))
	for b.Loop() {
		s, err := NewSorter(b.TempDir(), rows*kv.RecordSize/8/2)
		if err != nil {
			b.Fatal(err)
		}
		s.SetParallelism(1)
		if err := part.ForEachBlock(s.BlockRows(), s.Append); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

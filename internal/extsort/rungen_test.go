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
// 6007 records, 30 000 rows appended in uneven slices — to their SHA-256,
// one digest per run in spill order. Run generation is the output order
// (kv.Order) followed by raw CTS3 framing, so any kernel that keeps that
// order keeps these files, and with them extsort.spill_amp,
// extsort.ovc_decided, SpilledDiskBytes and the terasortGolden spill
// cells. The runs depend on neither procs setting.
//
// The rows are uniform, skewed and duplicate-heavy keys; a run file is its
// records plus 16 bytes of framing per block, whatever the keys.
var goldenRuns = map[kv.Distribution][]string{
	kv.DistUniform: {
		"6b965e0a2f108b8c30c64728de5d9ac190dfa2ea26e23e459c6f6f0260ae1152",
		"c914afea463f8ebf65785e374f3296ad128536cb48a343199eb2dc544de03cca",
		"bace5fed317507c6c3517fef2306253be24d2f9f1e0d16c5f6f0154afc619e01",
		"70b9423b89344c526541194b993550eca9c4c5a00785a69b19445de53dbbd791",
		"dfe6793b5acdb34f0cf9062fac180ddc0824c9b06f3fdb21aae6d755f6bca182",
	},
	kv.DistSkewed: {
		"1e6ddfc3001b60ff688c396c7889484b58337827237a9d5a16bec6c65696a6ec",
		"a3fd7d68517600645feb17c15495d2d7d3a6115c9e94fd0e0568dcec1fd2409b",
		"dfc01e83c37ec4e41af3041a6775c5afda6c92d7e0ab0c4f60f851b72398364b",
		"cce1660930b9d6048fa489aa207450a9ee1a8882d247e2fd8f2893f68e944d0a",
		"2819463c0fa6289d6439a34767fe7cee89ffbccb2ce79e88675e6a2b79d7ecd8",
	},
	kv.DistDupHeavy: {
		"ef539b594039ead972585e1bc2af7551f72ad6b19ae6bf3cd81217a38d9115d1",
		"40d85da5b304ea016a5461ec90a0c81e9412ce1237da30e5e99eac370d0c7602",
		"30af0bee052e56e66116b512fab19487c822979df6e7600aed57e3dc92ed5201",
		"5ce3f70ea0417b5eab179f912ded33c69c851c51bfd67e2cafe3d688ce2972a3",
		"5b97d059a4f6ffcc2b1fb1036464030a6cf6ab7783839facbafe28d04a11b1bf",
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

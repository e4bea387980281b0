package verify

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
)

// makeOutputs builds a correct K-way sorted output for generated input.
func makeOutputs(t *testing.T, seed uint64, rows int64, k int) ([]kv.Records, partition.Partitioner, Input) {
	t.Helper()
	p := partition.NewUniform(k)
	data := kv.NewGenerator(seed, kv.DistUniform).Generate(0, rows)
	parts := partition.Split(p, data)
	for i := range parts {
		parts[i].Sort()
	}
	return parts, p, Describe(data)
}

func TestSortedOutputAcceptsCorrect(t *testing.T) {
	outs, p, in := makeOutputs(t, 1, 2000, 4)
	if err := SortedOutput(outs, p, in); err != nil {
		t.Fatal(err)
	}
}

func TestDetectsUnsortedPartition(t *testing.T) {
	outs, p, in := makeOutputs(t, 2, 2000, 4)
	outs[1].Swap(0, outs[1].Len()-1)
	err := SortedOutput(outs, p, in)
	if err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("err = %v", err)
	}
}

func TestDetectsMisplacedRecord(t *testing.T) {
	outs, p, in := makeOutputs(t, 3, 2000, 4)
	// Move a record from partition 0 into partition 3's output (keeping
	// both sorted within themselves is unnecessary — membership fails
	// first on the foreign key).
	stolen := outs[0].Slice(0, 1).Clone()
	outs[3] = stolen.AppendRecords(outs[3])
	outs[0] = outs[0].Slice(1, outs[0].Len())
	err := SortedOutput(outs, p, in)
	if err == nil || !strings.Contains(err.Error(), "belongs to partition") {
		t.Fatalf("err = %v", err)
	}
}

func TestDetectsLostRecords(t *testing.T) {
	outs, p, in := makeOutputs(t, 4, 2000, 4)
	outs[2] = outs[2].Slice(0, outs[2].Len()-1)
	err := SortedOutput(outs, p, in)
	if err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("err = %v", err)
	}
}

func TestDetectsCorruptedValue(t *testing.T) {
	outs, p, in := makeOutputs(t, 5, 2000, 4)
	// Flip one byte in a value: row count and order still hold; only the
	// multiset checksum catches it.
	outs[0].Value(0)[5] ^= 0xFF
	err := SortedOutput(outs, p, in)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("err = %v", err)
	}
}

func TestDetectsWrongPartitionCount(t *testing.T) {
	outs, p, in := makeOutputs(t, 6, 500, 4)
	err := SortedOutput(outs[:3], p, in)
	if err == nil || !strings.Contains(err.Error(), "outputs") {
		t.Fatalf("err = %v", err)
	}
}

func TestEmptyPartitionsAllowed(t *testing.T) {
	// K larger than the record count leaves some partitions empty; that
	// is legal.
	outs, p, in := makeOutputs(t, 7, 3, 8)
	if err := SortedOutput(outs, p, in); err != nil {
		t.Fatal(err)
	}
}

func TestAllEmptyOutput(t *testing.T) {
	outs, p, in := makeOutputs(t, 8, 0, 4)
	if err := SortedOutput(outs, p, in); err != nil {
		t.Fatal(err)
	}
}

// TestDescribeGeneratedMatchesDescribe: the sharded, block-wise description
// equals the serial one over the materialized input at any core count, for
// row counts below, at and off the shard and block boundaries.
func TestDescribeGeneratedMatchesDescribe(t *testing.T) {
	g := kv.NewGenerator(9, kv.DistUniform)
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		for _, rows := range []int64{0, 1, 7, describeBlockRows, 100003} {
			sharded := DescribeGenerated(g, rows)
			if serial := Describe(g.Generate(0, rows)); sharded != serial {
				t.Errorf("GOMAXPROCS=%d rows=%d: sharded %+v != serial %+v", procs, rows, sharded, serial)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

func TestDescribeGeneratedEmpty(t *testing.T) {
	in := DescribeGenerated(kv.NewGenerator(1, kv.DistUniform), 0)
	if in.Rows != 0 || in.Checksum != 0 {
		t.Fatalf("empty description %+v", in)
	}
}

// TestStreamingCheckerMatchesSortedOutput: feeding a partition in many
// small blocks must accept exactly what the materialized checker accepts
// and produce the same summary totals.
func TestStreamingCheckerMatchesSortedOutput(t *testing.T) {
	outs, p, in := makeOutputs(t, 10, 3000, 4)
	sums := make([]Summary, len(outs))
	for k, out := range outs {
		c := NewPartitionChecker(p, k)
		if err := out.ForEachBlock(71, c.Feed); err != nil {
			t.Fatal(err)
		}
		sums[k] = c.Summary()
	}
	if err := CheckSummaries(sums, in); err != nil {
		t.Fatal(err)
	}
	if err := SortedOutput(outs, p, in); err != nil {
		t.Fatal(err)
	}
}

// TestStreamingCheckerDetectsCrossBlockDisorder: a key regression exactly
// at a block boundary must be caught, not just disorder within one block.
func TestStreamingCheckerDetectsCrossBlockDisorder(t *testing.T) {
	outs, p, _ := makeOutputs(t, 11, 2000, 4)
	out := outs[2]
	c := NewPartitionChecker(p, 2)
	mid := out.Len() / 2
	if err := c.Feed(out.Slice(mid, out.Len())); err != nil {
		t.Fatal(err)
	}
	err := c.Feed(out.Slice(0, mid))
	if err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("err = %v", err)
	}
}

// TestStreamingCheckerDetectsForeignKey: membership violations surface in
// streaming mode too.
func TestStreamingCheckerDetectsForeignKey(t *testing.T) {
	outs, p, _ := makeOutputs(t, 12, 2000, 4)
	c := NewPartitionChecker(p, 3)
	err := c.Feed(outs[0])
	if err == nil || !strings.Contains(err.Error(), "belongs to partition") {
		t.Fatalf("err = %v", err)
	}
}

// TestCheckerDetectsForeignKeyAnywhere: membership is tested on a block's
// first and last key only, so a foreign key at the head or tail of a block
// must fail membership, and one in the interior must break the ascending
// order that lets the ends speak for the rest.
func TestCheckerDetectsForeignKeyAnywhere(t *testing.T) {
	outs, p, _ := makeOutputs(t, 14, 2000, 4)
	own := outs[1]
	below, above := outs[0].Slice(0, 1), outs[2].Slice(0, 1)
	splice := func(at int, foreign kv.Records) kv.Records {
		return kv.Records{}.AppendRecords(own.Slice(0, at)).AppendRecords(foreign).AppendRecords(own.Slice(at, own.Len()))
	}
	mid := own.Len() / 2
	for _, tc := range []struct {
		name  string
		block kv.Records
		want  string
	}{
		{"head-from-below", splice(0, below), "belongs to partition 0"},
		{"tail-from-above", splice(own.Len(), above), "belongs to partition 2"},
		{"head-from-above", splice(0, above), "not sorted"},
		{"tail-from-below", splice(own.Len(), below), "not sorted"},
		{"interior-from-below", splice(mid, below), "not sorted"},
		{"interior-from-above", splice(mid, above), "not sorted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := NewPartitionChecker(p, 1).Feed(tc.block)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
			// The same damage straddling Feed calls, one record per block.
			c := NewPartitionChecker(p, 1)
			if err := tc.block.ForEachBlock(1, c.Feed); err == nil {
				t.Fatal("accepted when fed record by record")
			}
		})
	}
}

// TestCheckerDetectsDescendingPairAcrossFeeds: two blocks, each ascending
// and each inside the partition, whose boundary pair descends.
func TestCheckerDetectsDescendingPairAcrossFeeds(t *testing.T) {
	outs, p, _ := makeOutputs(t, 15, 2000, 4)
	out := outs[2]
	for _, cut := range []int{1, out.Len() / 2, out.Len() - 1} {
		c := NewPartitionChecker(p, 2)
		if err := c.Feed(out.Slice(cut, out.Len())); err != nil {
			t.Fatal(err)
		}
		err := c.Feed(out.Slice(cut-1, cut))
		if err == nil || !strings.Contains(err.Error(), "not sorted") {
			t.Fatalf("cut %d: err = %v", cut, err)
		}
	}
}

// TestCheckerSummaryIndependentOfBlocking: one block or a thousand, the
// Summary is the same.
func TestCheckerSummaryIndependentOfBlocking(t *testing.T) {
	outs, p, _ := makeOutputs(t, 16, 4000, 4)
	for k, out := range outs {
		whole := NewPartitionChecker(p, k)
		if err := whole.Feed(out); err != nil {
			t.Fatal(err)
		}
		want := whole.Summary()
		if want.Rows != int64(out.Len()) || want.Checksum != out.Checksum() ||
			!bytes.Equal(want.Min, out.Key(0)) || !bytes.Equal(want.Max, out.Key(out.Len()-1)) {
			t.Fatalf("partition %d: summary %+v does not describe the partition", k, want)
		}
		for _, blocks := range []int{2, 7, 1000} {
			c := NewPartitionChecker(p, k)
			if err := out.ForEachBlock((out.Len()+blocks-1)/blocks, c.Feed); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(c.Summary(), want) {
				t.Fatalf("partition %d in %d blocks: %+v, want %+v", k, blocks, c.Summary(), want)
			}
		}
	}
}

// TestCheckSummariesDetectsOverlap: per-partition streams can each be
// sorted while the partitions overlap in key range; only the summary-level
// check sees it.
func TestCheckSummariesDetectsOverlap(t *testing.T) {
	outs, p, in := makeOutputs(t, 13, 2000, 4)
	sums := make([]Summary, len(outs))
	for k, out := range outs {
		c := NewPartitionChecker(p, k)
		if err := c.Feed(out); err != nil {
			t.Fatal(err)
		}
		sums[k] = c.Summary()
	}
	// Swap two summaries: totals still match, order across partitions not.
	sums[1], sums[2] = sums[2], sums[1]
	err := CheckSummaries(sums, in)
	if err == nil || !strings.Contains(err.Error(), "below partition max") {
		t.Fatalf("err = %v", err)
	}
}

// TestStreamingCheckerEmptyPartitions: empty streams yield nil min/max and
// pass the cross-partition check.
func TestStreamingCheckerEmptyPartitions(t *testing.T) {
	p := partition.NewUniform(4)
	sums := make([]Summary, 4)
	for k := 0; k < 4; k++ {
		sums[k] = NewPartitionChecker(p, k).Summary()
	}
	if err := CheckSummaries(sums, Input{}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDescribeGenerated(b *testing.B) {
	const rows = 200000
	g := kv.NewGenerator(1, kv.DistUniform)
	b.SetBytes(rows * kv.RecordSize)
	for i := 0; i < b.N; i++ {
		if in := DescribeGenerated(g, rows); in.Rows != rows {
			b.Fatalf("described %d rows", in.Rows)
		}
	}
}

func BenchmarkPartitionCheckerFeed(b *testing.B) {
	p := partition.NewUniform(4)
	out := partition.Split(p, kv.NewGenerator(1, kv.DistUniform).Generate(0, 200000))[0]
	out.Sort()
	b.SetBytes(int64(out.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := NewPartitionChecker(p, 0).Feed(out); err != nil {
			b.Fatal(err)
		}
	}
}

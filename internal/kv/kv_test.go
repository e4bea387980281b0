package kv

import (
	"bytes"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

func mustRecords(t *testing.T, buf []byte) Records {
	t.Helper()
	r, err := NewRecords(buf)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func genRecords(t *testing.T, seed uint64, n int64) Records {
	t.Helper()
	return NewGenerator(seed, DistUniform).Generate(0, n)
}

func TestRecordLayoutConstants(t *testing.T) {
	if KeySize != 10 || ValueSize != 90 || RecordSize != 100 {
		t.Fatalf("record layout must match the paper: 10+90=100 bytes")
	}
}

func TestNewRecordsRejectsMisaligned(t *testing.T) {
	if _, err := NewRecords(make([]byte, 150)); err == nil {
		t.Fatalf("expected error for misaligned buffer")
	}
	if _, err := NewRecords(make([]byte, 200)); err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestRecordAccessors(t *testing.T) {
	buf := make([]byte, 2*RecordSize)
	for i := range buf {
		buf[i] = byte(i)
	}
	r := mustRecords(t, buf)
	if r.Len() != 2 || r.Size() != 200 {
		t.Fatalf("Len/Size = %d/%d", r.Len(), r.Size())
	}
	if !bytes.Equal(r.Key(1), buf[100:110]) {
		t.Fatalf("Key(1) wrong")
	}
	if !bytes.Equal(r.Value(0), buf[10:100]) {
		t.Fatalf("Value(0) wrong")
	}
	if !bytes.Equal(r.Record(1), buf[100:200]) {
		t.Fatalf("Record(1) wrong")
	}
}

func TestAppendAndSlice(t *testing.T) {
	r := MakeRecords(4)
	rec := make([]byte, RecordSize)
	for i := 0; i < 3; i++ {
		rec[0] = byte(i)
		r = r.Append(rec)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	s := r.Slice(1, 3)
	if s.Len() != 2 || s.Key(0)[0] != 1 || s.Key(1)[0] != 2 {
		t.Fatalf("Slice wrong: keys %v %v", s.Key(0)[0], s.Key(1)[0])
	}
}

func TestAppendPanicsOnWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	MakeRecords(1).Append(make([]byte, 50))
}

func TestSortMatchesReferenceSort(t *testing.T) {
	r := genRecords(t, 42, 1000)
	// Reference: extract records, sort with the stdlib on copies.
	ref := make([][]byte, r.Len())
	for i := range ref {
		ref[i] = append([]byte(nil), r.Record(i)...)
	}
	sort.Slice(ref, func(i, j int) bool { return bytes.Compare(ref[i][:KeySize], ref[j][:KeySize]) < 0 })
	r.Sort()
	if !r.IsSorted() {
		t.Fatalf("not sorted")
	}
	for i := range ref {
		if !bytes.Equal(r.Key(i), ref[i][:KeySize]) {
			t.Fatalf("record %d key mismatch", i)
		}
	}
}

func TestSortPreservesChecksumAndCount(t *testing.T) {
	r := genRecords(t, 7, 500)
	sum, n := r.Checksum(), r.Len()
	r.Sort()
	if r.Checksum() != sum || r.Len() != n {
		t.Fatalf("sort changed the multiset")
	}
}

func TestSortEmptyAndSingle(t *testing.T) {
	var empty Records
	empty.Sort()
	if !empty.IsSorted() {
		t.Fatalf("empty not sorted")
	}
	one := genRecords(t, 1, 1)
	one.Sort()
	if !one.IsSorted() || one.Len() != 1 {
		t.Fatalf("single-record sort broken")
	}
}

func TestMinMaxKey(t *testing.T) {
	r := genRecords(t, 11, 300)
	min, max := r.MinKey(), r.MaxKey()
	for i := 0; i < r.Len(); i++ {
		if bytes.Compare(r.Key(i), min) < 0 || bytes.Compare(r.Key(i), max) > 0 {
			t.Fatalf("Min/Max key wrong at %d", i)
		}
	}
	var empty Records
	if empty.MinKey() != nil || empty.MaxKey() != nil {
		t.Fatalf("empty Min/Max should be nil")
	}
}

func TestAppendRecords(t *testing.T) {
	a := genRecords(t, 1, 10)
	b := genRecords(t, 2, 20)
	c := a.Clone().AppendRecords(b)
	if c.Len() != 30 {
		t.Fatalf("AppendRecords len = %d", c.Len())
	}
	if !bytes.Equal(c.Bytes()[:a.Size()], a.Bytes()) || !bytes.Equal(c.Bytes()[a.Size():], b.Bytes()) {
		t.Fatalf("AppendRecords lost bytes")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	g1 := NewGenerator(99, DistUniform)
	g2 := NewGenerator(99, DistUniform)
	if !g1.Generate(0, 100).Equal(g2.Generate(0, 100)) {
		t.Fatalf("same seed must give same records")
	}
	if g1.Generate(0, 10).Equal(NewGenerator(100, DistUniform).Generate(0, 10)) {
		t.Fatalf("different seeds gave identical records")
	}
}

func TestGeneratorAddressable(t *testing.T) {
	// Generating [100,200) directly must equal rows 100..199 of [0,300).
	g := NewGenerator(5, DistUniform)
	all := g.Generate(0, 300)
	mid := g.Generate(100, 100)
	if !mid.Equal(all.Slice(100, 200)) {
		t.Fatalf("row-addressable generation broken")
	}
}

func TestGeneratorKeyUniformity(t *testing.T) {
	// First key byte should be roughly uniform: chi-square over 16 buckets.
	r := NewGenerator(2024, DistUniform).Generate(0, 16000)
	var counts [16]int
	for i := 0; i < r.Len(); i++ {
		counts[r.Key(i)[0]>>4]++
	}
	expected := float64(r.Len()) / 16
	var chi2 float64
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 15 dof; 99.9th percentile ≈ 37.7.
	if chi2 > 37.7 {
		t.Fatalf("keys not uniform: chi2 = %.1f, counts = %v", chi2, counts)
	}
}

func TestGeneratorSkewed(t *testing.T) {
	r := NewGenerator(1, DistSkewed).Generate(0, 8000)
	low, high := 0, 0
	for i := 0; i < r.Len(); i++ {
		if r.Key(i)[0] < 64 {
			low++
		} else if r.Key(i)[0] >= 192 {
			high++
		}
	}
	if low <= 2*high {
		t.Fatalf("skewed distribution not skewed: low=%d high=%d", low, high)
	}
}

func TestGeneratorValueEmbedsRow(t *testing.T) {
	g := NewGenerator(8, DistUniform)
	r := g.Generate(1234, 1)
	row := r.Value(0)[:8]
	want := []byte{0, 0, 0, 0, 0, 0, 4, 210} // 1234 big-endian
	if !bytes.Equal(row, want) {
		t.Fatalf("value row id = %v, want %v", row, want)
	}
	for _, b := range r.Value(0)[8:] {
		if b < 'A' || b > 'Z' {
			t.Fatalf("filler byte %q not printable uppercase", b)
		}
	}
}

func TestSplitRows(t *testing.T) {
	bounds := SplitRows(10, 3)
	if len(bounds) != 4 || bounds[0] != 0 || bounds[3] != 10 {
		t.Fatalf("bounds = %v", bounds)
	}
	// Sizes differ by at most 1 and cover everything.
	total := int64(0)
	for i := 0; i < 3; i++ {
		size := bounds[i+1] - bounds[i]
		if size < 3 || size > 4 {
			t.Fatalf("range %d has size %d", i, size)
		}
		total += size
	}
	if total != 10 {
		t.Fatalf("ranges cover %d rows", total)
	}
}

func TestSplitRowsQuick(t *testing.T) {
	f := func(totalRaw uint32, nRaw uint8) bool {
		total := int64(totalRaw % 1000000)
		n := int(nRaw%64) + 1
		bounds := SplitRows(total, n)
		if bounds[0] != 0 || bounds[n] != total {
			return false
		}
		minSize, maxSize := total, int64(0)
		for i := 0; i < n; i++ {
			size := bounds[i+1] - bounds[i]
			if size < 0 {
				return false
			}
			if size < minSize {
				minSize = size
			}
			if size > maxSize {
				maxSize = size
			}
		}
		return maxSize-minSize <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitRowsPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	SplitRows(10, 0)
}

func BenchmarkSort100k(b *testing.B) {
	g := NewGenerator(1, DistUniform)
	base := g.Generate(0, 100000)
	b.SetBytes(int64(base.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := base.Clone()
		b.StartTimer()
		r.Sort()
	}
}

var digestSink uint64

func BenchmarkChecksum(b *testing.B) {
	r := NewGenerator(1, DistUniform).Generate(0, 10000)
	b.SetBytes(int64(r.Size()))
	for i := 0; i < b.N; i++ {
		digestSink += r.Checksum()
	}
}

// BenchmarkChecksumRecord is the per-record entry point streaming consumers
// call: the same kernel plus one call and length check per record.
func BenchmarkChecksumRecord(b *testing.B) {
	r := NewGenerator(1, DistUniform).Generate(0, 10000)
	b.SetBytes(int64(r.Size()))
	for i := 0; i < b.N; i++ {
		for j := 0; j < r.Len(); j++ {
			digestSink += ChecksumRecord(r.Record(j))
		}
	}
}

// TestForEachBlock: blocks cover the buffer exactly, in order, with only
// the final block short; a callback error aborts.
func TestForEachBlock(t *testing.T) {
	r := NewGenerator(21, DistUniform).Generate(0, 250)
	var got Records
	blocks := 0
	if err := r.ForEachBlock(100, func(b Records) error {
		got = got.AppendRecords(b)
		blocks++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if blocks != 3 || !got.Equal(r) {
		t.Fatalf("blocks=%d equal=%v", blocks, got.Equal(r))
	}
	if err := r.ForEachBlock(0, func(Records) error { return nil }); err == nil {
		t.Fatal("blockRows=0 accepted")
	}
	stop := fmt.Errorf("stop")
	if err := r.ForEachBlock(10, func(Records) error { return stop }); err != stop {
		t.Fatalf("err = %v", err)
	}
}

// TestGenerateBlocksMatchesGenerate: block-by-block generation produces the
// same bytes as one-shot generation, for aligned and unaligned counts.
func TestGenerateBlocksMatchesGenerate(t *testing.T) {
	for _, rows := range []int64{0, 1, 99, 100, 101, 1000} {
		want := NewGenerator(5, DistSkewed).Generate(3, rows)
		var got Records
		if err := NewGenerator(5, DistSkewed).GenerateBlocks(3, rows, 100, func(b Records) error {
			got = got.AppendRecords(b)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("rows=%d: block generation differs", rows)
		}
	}
}

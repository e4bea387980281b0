package extsort

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"

	"codedterasort/internal/kv"
)

// drainAll collects the merger's full output into one buffer.
func drainAll(t *testing.T, m *Merger) kv.Records {
	t.Helper()
	out := kv.MakeRecords(0)
	if err := m.Drain(100, func(b kv.Records) error {
		out = out.AppendRecords(b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSorterMatchesInMemorySort: across buffer-fits, one-spill and
// many-spill regimes, the external sort must produce exactly the bytes of
// the in-memory radix sort of the same input.
func TestSorterMatchesInMemorySort(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rows   int64
		budget int64
	}{
		{"empty", 0, 1 << 20},
		{"one-record", 1, 1 << 20},
		{"fits-in-memory", 3000, 1 << 20},
		{"single-spill", 3000, 64 * kv.RecordSize},
		{"many-spills", 20000, 997 * kv.RecordSize},
		{"tiny-budget", 500, 17 * kv.RecordSize},
	} {
		t.Run(tc.name, func(t *testing.T) {
			input := kv.NewGenerator(42, kv.DistUniform).Generate(0, tc.rows)
			want := input.Clone()
			want.Sort()

			s, err := NewSorter(t.TempDir(), tc.budget)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Append in uneven slices to exercise buffer boundaries.
			for i := 0; i < input.Len(); {
				j := i + 1 + (i*7)%37
				if j > input.Len() {
					j = input.Len()
				}
				if err := s.Append(input.Slice(i, j)); err != nil {
					t.Fatal(err)
				}
				i = j
			}
			m, err := s.Merge()
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			got := drainAll(t, m)
			if !got.Equal(want) {
				t.Fatalf("external sort differs from in-memory sort (%d rows, %d runs)",
					tc.rows, s.Runs())
			}
			if tc.budget < tc.rows*kv.RecordSize && tc.rows > 0 && s.Runs() == 0 {
				t.Fatalf("input %dx budget yet nothing spilled", tc.rows*kv.RecordSize/tc.budget)
			}
			if _, err := m.Next(); err != io.EOF {
				t.Fatalf("drained merger returned %v, want io.EOF", err)
			}
		})
	}
}

// TestSorterSpillsRemoveOnClose: Close removes the spill directory.
func TestSorterSpillsRemoveOnClose(t *testing.T) {
	parent := t.TempDir()
	s, err := NewSorter(parent, 64*kv.RecordSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(kv.NewGenerator(1, kv.DistUniform).Generate(0, 1000)); err != nil {
		t.Fatal(err)
	}
	if s.Runs() == 0 {
		t.Fatal("no run spilled")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.Dir()); !os.IsNotExist(err) {
		t.Fatalf("spill dir survives Close: %v", err)
	}
}

// TestMergerDeterministicOnDuplicateKeys: equal keys come out in source
// (spill) order, so repeated merges of the same runs are byte-identical.
func TestMergerDeterministicOnDuplicateKeys(t *testing.T) {
	// Build records with heavily colliding keys but distinct values.
	rec := func(key byte, val byte) kv.Records {
		buf := make([]byte, kv.RecordSize)
		for i := 0; i < kv.KeySize; i++ {
			buf[i] = key
		}
		for i := kv.KeySize; i < kv.RecordSize; i++ {
			buf[i] = val
		}
		r, _ := kv.NewRecords(buf)
		return r
	}
	run := func() kv.Records {
		s, err := NewSorter(t.TempDir(), 4*kv.RecordSize)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for v := 0; v < 40; v++ {
			if err := s.Append(rec(byte(v%3), byte(v))); err != nil {
				t.Fatal(err)
			}
		}
		m, err := s.Merge()
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		return drainAll(t, m)
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Fatal("merge of duplicate keys is not deterministic")
	}
	if !a.IsSorted() {
		t.Fatal("merged duplicates not sorted")
	}
}

// TestSpoolRoundTrip: records appended across many small calls come back
// block by block, in order, with the declared block count.
func TestSpoolRoundTrip(t *testing.T) {
	input := kv.NewGenerator(7, kv.DistUniform).Generate(0, 1234)
	sp, err := NewSpool(t.TempDir(), 100)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	for i := 0; i < input.Len(); i += 7 {
		j := i + 7
		if j > input.Len() {
			j = input.Len()
		}
		if err := sp.Append(input.Slice(i, j)); err != nil {
			t.Fatal(err)
		}
	}
	blocks, err := sp.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(13); blocks != want { // ceil(1234/100)
		t.Fatalf("blocks = %d, want %d", blocks, want)
	}
	if sp.Rows() != 1234 {
		t.Fatalf("rows = %d", sp.Rows())
	}
	rd, err := sp.Reader()
	if err != nil {
		t.Fatal(err)
	}
	got := kv.MakeRecords(0)
	n := int64(0)
	for {
		b, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = got.AppendRecords(b)
		n++
	}
	if n != blocks {
		t.Fatalf("read %d blocks, Finish declared %d", n, blocks)
	}
	if !got.Equal(input) {
		t.Fatal("spool round trip altered records")
	}
}

// TestEmptySpool: zero appended records finish with zero blocks and a
// reader that immediately returns EOF.
func TestEmptySpool(t *testing.T) {
	sp, err := NewSpool(t.TempDir(), 10)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	blocks, err := sp.Finish()
	if err != nil || blocks != 0 {
		t.Fatalf("blocks=%d err=%v", blocks, err)
	}
	rd, err := sp.Reader()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("empty spool read: %v, want io.EOF", err)
	}
}

// TestScanFile: a raw record file is delivered block by block; a torn file
// (partial trailing record) is an error.
func TestScanFile(t *testing.T) {
	input := kv.NewGenerator(9, kv.DistUniform).Generate(0, 777)
	path := filepath.Join(t.TempDir(), "input.dat")
	if err := os.WriteFile(path, input.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got := kv.MakeRecords(0)
	calls := 0
	if err := ScanFile(path, 100, func(b kv.Records) error {
		got = got.AppendRecords(b)
		calls++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(input) {
		t.Fatal("scan altered records")
	}
	if calls != 8 { // ceil(777/100)
		t.Fatalf("calls = %d", calls)
	}

	torn := filepath.Join(t.TempDir(), "torn.dat")
	if err := os.WriteFile(torn, input.Bytes()[:kv.RecordSize*3+17], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ScanFile(torn, 100, func(kv.Records) error { return nil }); err == nil {
		t.Fatal("torn input file accepted")
	}
}

// TestSampleFile: every stride-th record of a part file, by position; a
// torn file and a non-positive stride are errors.
func TestSampleFile(t *testing.T) {
	input := kv.NewGenerator(9, kv.DistUniform).Generate(0, 777)
	dir := t.TempDir()
	if err := os.WriteFile(PartFile(dir, 3), input.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := SampleFile(filepath.Join(dir, "part-00003"), 100)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 8 {
		t.Fatalf("sampled %d records, want 8", got.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if !bytes.Equal(got.Record(i), input.Record(100*i)) {
			t.Fatalf("sample %d is not record %d", i, 100*i)
		}
	}
	if _, err := SampleFile(PartFile(dir, 3), 0); err == nil {
		t.Fatal("stride 0 accepted")
	}
	if err := os.WriteFile(PartFile(dir, 4), input.Bytes()[:kv.RecordSize*3+17], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := SampleFile(PartFile(dir, 4), 2); err == nil {
		t.Fatal("torn input file accepted")
	}
}

// TestBudgetChunkRows: a full window on every stream stays a quarter of
// the budget, within the [16, 8192] clamp.
func TestBudgetChunkRows(t *testing.T) {
	for _, tc := range []struct {
		budget          int64
		streams, window int
		want            int
	}{
		{1 << 20, 3, 4, 218},
		{1 << 20, 3, 0, 218}, // window 0: the engines' default of 4
		{1 << 20, 0, 1, 2621},
		{1000, 3, 4, 16},
		{1 << 40, 3, 4, 8192},
	} {
		if got := BudgetChunkRows(tc.budget, tc.streams, tc.window); got != tc.want {
			t.Errorf("BudgetChunkRows(%d, %d, %d) = %d, want %d", tc.budget, tc.streams, tc.window, got, tc.want)
		}
	}
}

// TestBlockWriterExactMultiples: appends landing exactly on block
// boundaries produce no empty trailing block.
func TestBlockWriterExactMultiples(t *testing.T) {
	var buf bytes.Buffer
	w := NewBlockWriter(&buf, 50)
	input := kv.NewGenerator(3, kv.DistUniform).Generate(0, 100)
	if err := w.Append(input); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if w.Blocks() != 2 {
		t.Fatalf("blocks = %d, want 2", w.Blocks())
	}
	rd := NewRunReader(&buf)
	for i := 0; i < 2; i++ {
		b, err := rd.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b.Len() != 50 {
			t.Fatalf("block %d has %d records", i, b.Len())
		}
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("want io.EOF, got %v", err)
	}
}

// frameMagics walks a spill file frame by frame and returns each frame's
// magic, using only the headers (payloads are skipped, not validated).
func frameMagics(t *testing.T, data []byte) []uint32 {
	t.Helper()
	var magics []uint32
	for pos := 0; pos < len(data); {
		if pos+blockHeader > len(data) {
			t.Fatalf("torn header at offset %d", pos)
		}
		m := binary.BigEndian.Uint32(data[pos : pos+4])
		n := int(binary.BigEndian.Uint32(data[pos+4 : pos+8]))
		magics = append(magics, m)
		switch m {
		case blockMagic:
			pos += blockHeader + n*kv.RecordSize + blockTrailer
		case blockMagicV2:
			encLen := int(binary.BigEndian.Uint32(data[pos+8 : pos+12]))
			pos += blockHeader + 4 + encLen + blockTrailer
		default:
			t.Fatalf("unknown magic %#x at offset %d", m, pos)
		}
	}
	return magics
}

// TestCompactBlockWriterRoundTrip: a compact writer over sorted
// duplicate-heavy records must emit prefix-truncated frames, write fewer
// bytes to disk than the records' raw size, and round-trip the records
// byte-identically through RunReader.
func TestCompactBlockWriterRoundTrip(t *testing.T) {
	recs := quantized(2000, 64) // 64 distinct keys: long equal-key stretches
	recs.Sort()
	var buf bytes.Buffer
	w := NewCompactBlockWriter(&buf, 37)
	if err := w.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if w.RawBytes() != int64(recs.Size()) {
		t.Fatalf("raw bytes %d, want %d", w.RawBytes(), recs.Size())
	}
	if int64(buf.Len()) != w.DiskBytes() {
		t.Fatalf("DiskBytes %d but file is %d bytes", w.DiskBytes(), buf.Len())
	}
	if w.DiskBytes() >= w.RawBytes() {
		t.Fatalf("compact file (%d bytes) did not beat raw records (%d bytes)", w.DiskBytes(), w.RawBytes())
	}
	v2 := 0
	for _, m := range frameMagics(t, buf.Bytes()) {
		if m == blockMagicV2 {
			v2++
		}
	}
	if v2 == 0 {
		t.Fatal("no v2 frames in a duplicate-heavy compact file")
	}
	var got kv.Records
	rd := NewRunReader(bytes.NewReader(buf.Bytes()))
	for {
		b, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = got.AppendRecords(b)
	}
	if !bytes.Equal(got.Bytes(), recs.Bytes()) {
		t.Fatal("compact round trip altered records")
	}
}

// TestCompactBlockWriterFallsBackOnIncompressible: unsorted uniform keys
// share almost no prefixes, so the per-block choice must keep every frame
// v1 and hold disk bytes at exactly raw plus v1 framing — the compact
// format never inflates a spill file beyond framing.
func TestCompactBlockWriterFallsBackOnIncompressible(t *testing.T) {
	recs := kv.NewGenerator(29, kv.DistUniform).Generate(0, 500)
	var buf bytes.Buffer
	w := NewCompactBlockWriter(&buf, 50)
	if err := w.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	for _, m := range frameMagics(t, buf.Bytes()) {
		if m != blockMagic {
			t.Fatalf("incompressible block framed as %#x", m)
		}
	}
	framing := w.Blocks() * (blockHeader + blockTrailer)
	if w.DiskBytes() != w.RawBytes()+framing {
		t.Fatalf("disk bytes %d, want raw %d + framing %d", w.DiskBytes(), w.RawBytes(), framing)
	}
}

var blockSumSink uint64

// BenchmarkBlockSum is the frame trailer digest, paid once on every spilled
// byte at write and once at read.
func BenchmarkBlockSum(b *testing.B) {
	payload := kv.NewGenerator(1, kv.DistUniform).Generate(0, 4096).Bytes()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		blockSumSink += blockSum(payload)
	}
}

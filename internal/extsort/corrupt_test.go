package extsort

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"io"
	"strings"
	"testing"

	"codedterasort/internal/kv"
)

// validRunBytes returns the on-disk bytes of a two-block spill file.
func validRunBytes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewBlockWriter(&buf, 50)
	if err := w.Append(kv.NewGenerator(11, kv.DistUniform).Generate(0, 80)); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readAll consumes the reader to EOF or first error, returning the error
// and the records successfully read before it.
func readAll(data []byte) (rows int, err error) {
	rd := NewRunReader(bytes.NewReader(data))
	for {
		b, err := rd.Next()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return rows, err
		}
		rows += b.Len()
	}
}

// TestRunReaderCorruption: every class of spill-file damage — truncations
// at each frame section, torn frames, flipped payload bits, bad magic,
// impossible counts — must surface as an error, never a panic and never
// silently short data.
func TestRunReaderCorruption(t *testing.T) {
	valid := validRunBytes(t)
	if rows, err := readAll(valid); err != nil || rows != 80 {
		t.Fatalf("valid file: rows=%d err=%v", rows, err)
	}
	block1 := blockHeader + 50*kv.RecordSize + blockTrailer

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			data := mutate(append([]byte(nil), valid...))
			if _, err := readAll(data); err == nil {
				t.Fatal("corrupted spill file accepted")
			}
		})
	}

	corrupt("truncated-mid-header", func(d []byte) []byte { return d[:3] })
	corrupt("truncated-mid-payload", func(d []byte) []byte { return d[:blockHeader+kv.RecordSize*7+13] })
	corrupt("truncated-mid-checksum", func(d []byte) []byte { return d[:block1-3] })
	corrupt("second-block-torn", func(d []byte) []byte { return d[:block1+blockHeader+5] })
	corrupt("bad-magic", func(d []byte) []byte { d[0] ^= 0xFF; return d })
	corrupt("bad-magic-second-block", func(d []byte) []byte { d[block1+1] ^= 0x10; return d })
	corrupt("flipped-payload-bit", func(d []byte) []byte { d[blockHeader+100] ^= 0x01; return d })
	corrupt("flipped-checksum-bit", func(d []byte) []byte { d[block1-1] ^= 0x01; return d })
	// The CRC-32C fills the low half of the 8-byte trailer; the zero
	// extension above it is checked too.
	corrupt("flipped-trailer-pad-bit", func(d []byte) []byte { d[block1-blockTrailer] ^= 0x01; return d })
	corrupt("fnv-trailer-under-crc-magic", func(d []byte) []byte {
		binary.BigEndian.PutUint64(d[block1-blockTrailer:], fnv64a(d[blockHeader:block1-blockTrailer]))
		return d
	})
	corrupt("count-not-matching-payload", func(d []byte) []byte {
		binary.BigEndian.PutUint32(d[4:8], 49) // fewer than framed: trailer misaligns
		return d
	})
	corrupt("absurd-count", func(d []byte) []byte {
		binary.BigEndian.PutUint32(d[4:8], 0xFFFFFFFF)
		return d
	})
	corrupt("trailing-garbage", func(d []byte) []byte { return append(d, 0xAB) })
}

// fnv64a is the retired CTS1/CTS2 trailer digest.
func fnv64a(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// retiredFrame lays recs out as one frame of a retired prefix-truncated
// layout — [magic][count][encLen][payload][crc32c], the payload giving each
// record an lcp byte (0 here), its key and its value — so the reader can be
// shown such frames although no writer makes them any more.
func retiredFrame(magic uint32, recs kv.Records) []byte {
	var enc []byte
	for i := 0; i < recs.Len(); i++ {
		enc = append(append(enc, 0), recs.Record(i)...)
	}
	frame := binary.BigEndian.AppendUint32(nil, magic)
	frame = binary.BigEndian.AppendUint32(frame, uint32(recs.Len()))
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(enc)))
	frame = append(frame, enc...)
	return binary.BigEndian.AppendUint64(frame, blockSum(enc))
}

// TestRunReaderRejectsRetiredFrames: a well-formed frame of a retired
// format — the FNV-trailer layouts with their original trailer or a CRC
// one, and the prefix-truncated CTS4 layout — is refused by its magic with
// a version error, never reported as a checksum mismatch (bit rot) and
// never read.
func TestRunReaderRejectsRetiredFrames(t *testing.T) {
	recs := kv.NewGenerator(29, kv.DistUniform).Generate(0, 40)
	recs.Sort()
	var v1 bytes.Buffer
	if err := WriteBlock(&v1, recs); err != nil {
		t.Fatal(err)
	}
	if rows, err := readAll(v1.Bytes()); err != nil || rows != 40 {
		t.Fatalf("current-format frame: rows=%d err=%v", rows, err)
	}
	for _, tc := range []struct {
		name     string
		frame    []byte
		magic    uint32
		payload  int // offset of the checksummed payload
		trailers []string
	}{
		{"v1", v1.Bytes(), retiredMagic, blockHeader, []string{"fnv", "crc"}},
		{"v2", retiredFrame(retiredMagicV2, recs), retiredMagicV2, blockHeader + 4, []string{"fnv", "crc"}},
		{"cts4", retiredFrame(retiredMagicCompact, recs), retiredMagicCompact, blockHeader + 4, []string{"crc"}},
	} {
		for _, trailer := range tc.trailers {
			t.Run(tc.name+"-"+trailer+"-trailer", func(t *testing.T) {
				d := append([]byte(nil), tc.frame...)
				binary.BigEndian.PutUint32(d[0:4], tc.magic)
				if trailer == "fnv" {
					end := len(d) - blockTrailer
					binary.BigEndian.PutUint64(d[end:], fnv64a(d[tc.payload:end]))
				}
				rows, err := readAll(d)
				if err == nil || rows != 0 {
					t.Fatalf("retired frame read: rows=%d err=%v", rows, err)
				}
				if msg := err.Error(); !strings.Contains(msg, "retired frame version") || strings.Contains(msg, "checksum") {
					t.Fatalf("retired frame not reported as a version error: %v", err)
				}
			})
		}
	}
}

// TestRunReaderPartialReadBeforeError: damage in block 2 still delivers
// block 1 intact first — the reader fails at the damage, not before it.
func TestRunReaderPartialReadBeforeError(t *testing.T) {
	valid := validRunBytes(t)
	block1 := blockHeader + 50*kv.RecordSize + blockTrailer
	data := append([]byte(nil), valid[:block1+blockHeader+9]...)
	rd := NewRunReader(bytes.NewReader(data))
	b, err := rd.Next()
	if err != nil || b.Len() != 50 {
		t.Fatalf("first block: len=%d err=%v", b.Len(), err)
	}
	if _, err := rd.Next(); err == nil || err == io.EOF {
		t.Fatalf("torn second block returned %v", err)
	}
}

// TestRunReaderEmptyInput: zero bytes is a clean, empty spill file.
func TestRunReaderEmptyInput(t *testing.T) {
	if rows, err := readAll(nil); err != nil || rows != 0 {
		t.Fatalf("rows=%d err=%v", rows, err)
	}
}

// TestMergerRejectsUnsortedRun: a checksum-valid run whose keys regress
// (a writer bug or checksum-preserving tamper) fails the merge instead of
// silently yielding unsorted output.
func TestMergerRejectsUnsortedRun(t *testing.T) {
	recs := kv.NewGenerator(13, kv.DistUniform).Generate(0, 120)
	// Deliberately NOT sorted.
	var buf bytes.Buffer
	w := NewBlockWriter(&buf, 50)
	if err := w.Append(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	src := &mergeSource{rd: NewRunReader(bytes.NewReader(buf.Bytes()))}
	if err := src.load(); err != nil {
		t.Fatal(err)
	}
	var err error
	for err == nil && src.key != nil {
		err = src.advance()
	}
	if err == nil {
		t.Fatal("unsorted run drained without error")
	}
}

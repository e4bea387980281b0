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

// TestRunReaderRejectsRetiredFrames: a well-formed frame of the retired
// FNV-trailer format — in either layout, with its original trailer or a
// CRC one — is refused by its magic with a version error, never reported
// as a checksum mismatch (bit rot) and never read.
func TestRunReaderRejectsRetiredFrames(t *testing.T) {
	recs := kv.NewGenerator(29, kv.DistUniform).Generate(0, 40)
	recs.Sort()
	var v1 bytes.Buffer
	if err := WriteBlock(&v1, recs); err != nil {
		t.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := writeBlockV2(&v2, encodeBlockV2(nil, recs), recs.Len()); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		frame   []byte
		magic   uint32
		payload int // offset of the checksummed payload
	}{
		{"v1", v1.Bytes(), retiredMagic, blockHeader},
		{"v2", v2.Bytes(), retiredMagicV2, blockHeader + 4},
	} {
		for _, trailer := range []string{"fnv", "crc"} {
			t.Run(tc.name+"-"+trailer+"-trailer", func(t *testing.T) {
				d := append([]byte(nil), tc.frame...)
				if rows, err := readAll(d); err != nil || rows != 40 {
					t.Fatalf("current-format frame: rows=%d err=%v", rows, err)
				}
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

// validV2Bytes returns a two-frame v2 (CTS4) spill file over sorted records,
// built directly from the v2 encoder so every byte offset is known.
func validV2Bytes(t *testing.T, recs kv.Records) []byte {
	t.Helper()
	var buf bytes.Buffer
	half := recs.Len() / 2
	for _, blk := range []kv.Records{recs.Slice(0, half), recs.Slice(half, recs.Len())} {
		if err := writeBlockV2(&buf, encodeBlockV2(nil, blk), blk.Len()); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// resealV2 recomputes the checksum of the first v2 frame of d after its
// encoded payload was tampered with — modeling damage (or malice) the
// checksum cannot catch, which the decoder's structural checks must.
func resealV2(d []byte) []byte {
	encLen := binary.BigEndian.Uint32(d[8:12])
	enc := d[12 : 12+encLen]
	binary.BigEndian.PutUint64(d[12+encLen:], blockSum(enc))
	return d
}

// TestRunReaderV2Corruption: every class of damage to a prefix-truncated
// frame — torn sections, flipped bits, impossible lengths, malformed lcp
// bytes (including checksum-preserving ones), frames under the wrong magic
// — must surface as an error, never a panic and never wrong records.
func TestRunReaderV2Corruption(t *testing.T) {
	recs := kv.NewGenerator(17, kv.DistUniform).Generate(0, 60)
	recs.Sort()
	valid := validV2Bytes(t, recs)
	if rows, err := readAll(valid); err != nil || rows != 60 {
		t.Fatalf("valid v2 file: rows=%d err=%v", rows, err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			data := mutate(append([]byte(nil), valid...))
			if _, err := readAll(data); err == nil {
				t.Fatal("corrupted v2 spill file accepted")
			}
		})
	}

	corrupt("torn-enclen", func(d []byte) []byte { return d[:blockHeader+2] })
	corrupt("torn-payload", func(d []byte) []byte { return d[:blockHeader+4+17] })
	corrupt("torn-checksum", func(d []byte) []byte {
		encLen := binary.BigEndian.Uint32(d[8:12])
		return d[:12+encLen+3]
	})
	corrupt("flipped-payload-bit", func(d []byte) []byte { d[12+5] ^= 0x01; return d })
	corrupt("flipped-checksum-bit", func(d []byte) []byte {
		d[12+binary.BigEndian.Uint32(d[8:12])+blockTrailer-1] ^= 0x01
		return d
	})
	corrupt("flipped-trailer-pad-bit", func(d []byte) []byte {
		d[12+binary.BigEndian.Uint32(d[8:12])] ^= 0x01
		return d
	})
	corrupt("fnv-trailer-under-crc-magic", func(d []byte) []byte {
		encLen := binary.BigEndian.Uint32(d[8:12])
		binary.BigEndian.PutUint64(d[12+encLen:], fnv64a(d[12:12+encLen]))
		return d
	})
	corrupt("absurd-enclen", func(d []byte) []byte {
		binary.BigEndian.PutUint32(d[8:12], uint32(61*(kv.RecordSize+1)))
		return d
	})
	corrupt("absurd-count", func(d []byte) []byte {
		binary.BigEndian.PutUint32(d[4:8], 0xFFFFFFFF)
		return d
	})
	corrupt("zero-count-with-payload", func(d []byte) []byte {
		binary.BigEndian.PutUint32(d[4:8], 0)
		return d
	})
	// Checksum-preserving lcp damage: the trailer is recomputed over the
	// tampered encoding, so only the decoder's own validation stands
	// between these frames and reconstructing garbage records.
	corrupt("first-record-lcp-nonzero", func(d []byte) []byte {
		d[12] = 3
		return resealV2(d)
	})
	corrupt("lcp-beyond-keysize", func(d []byte) []byte {
		d[12+1+kv.KeySize+kv.ValueSize] = kv.KeySize + 1 // record 1's lcp byte
		return resealV2(d)
	})
	corrupt("lcp-shifts-decode-off-end", func(d []byte) []byte {
		d[12+1+kv.KeySize+kv.ValueSize] = 7 // shortens record 1's suffix: trailing bytes remain
		return resealV2(d)
	})
	// Magic confusion: a v2 frame relabeled v1 makes the reader expect
	// count*RecordSize raw payload bytes that are not there; a v1 frame
	// relabeled v2 makes it read an encLen out of record bytes. Both must
	// reject, whatever the resulting lengths happen to be.
	corrupt("v2-frame-with-v1-magic", func(d []byte) []byte {
		binary.BigEndian.PutUint32(d[0:4], blockMagic)
		return d
	})
	t.Run("v1-frame-with-v2-magic", func(t *testing.T) {
		var buf bytes.Buffer
		w := NewBlockWriter(&buf, 60)
		if err := w.Append(recs); err != nil {
			t.Fatal(err)
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		d := buf.Bytes()
		binary.BigEndian.PutUint32(d[0:4], blockMagicV2)
		if _, err := readAll(d); err == nil {
			t.Fatal("v1 frame under v2 magic accepted")
		}
	})
}

// TestRunReaderV2PartialReadBeforeError: damage in the second v2 frame
// still delivers the first frame's reconstructed records intact.
func TestRunReaderV2PartialReadBeforeError(t *testing.T) {
	recs := kv.NewGenerator(19, kv.DistUniform).Generate(0, 60)
	recs.Sort()
	valid := validV2Bytes(t, recs)
	frame1 := 12 + int(binary.BigEndian.Uint32(valid[8:12])) + blockTrailer
	rd := NewRunReader(bytes.NewReader(valid[:frame1+blockHeader+4+9]))
	b, err := rd.Next()
	if err != nil || b.Len() != 30 {
		t.Fatalf("first v2 frame: len=%d err=%v", b.Len(), err)
	}
	if !bytes.Equal(b.Bytes(), recs.Slice(0, 30).Bytes()) {
		t.Fatal("first v2 frame reconstructed wrong records")
	}
	if _, err := rd.Next(); err == nil || err == io.EOF {
		t.Fatalf("torn second v2 frame returned %v", err)
	}
}

// TestMergerRejectsUnsortedV2Run: the satellite regression — a v2 run with
// valid framing and checksums whose reconstructed keys regress (the
// truncated encoding re-expanded into out-of-order records) must fail the
// merge's sortedness guard, which runs on reconstructed keys, not frames.
func TestMergerRejectsUnsortedV2Run(t *testing.T) {
	recs := kv.NewGenerator(23, kv.DistUniform).Generate(0, 120)
	// Deliberately NOT sorted: every frame is internally valid v2.
	data := validV2Bytes(t, recs)
	if rows, err := readAll(data); err != nil || rows != 120 {
		t.Fatalf("reader must accept the frames (sortedness is the merge's job): rows=%d err=%v", rows, err)
	}
	src := &mergeSource{rd: NewRunReader(bytes.NewReader(data))}
	if err := src.load(); err != nil {
		t.Fatal(err)
	}
	var err error
	for err == nil && src.key != nil {
		err = src.advance()
	}
	if err == nil {
		t.Fatal("unsorted v2 run drained without error")
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

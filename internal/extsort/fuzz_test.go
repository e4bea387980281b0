package extsort

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"codedterasort/internal/kv"
)

// FuzzRunReader drives the spill-file reader with arbitrary bytes: it must
// terminate with io.EOF or an error, never panic, and every block it does
// deliver must be record-aligned. A reader that accepts bytes the writer
// produced must deliver them unchanged (round-trip seeds below).
func FuzzRunReader(f *testing.F) {
	// Seeds: empty, a valid two-block file, and hand-damaged variants so
	// the fuzzer starts at the interesting boundaries.
	f.Add([]byte{})
	var buf bytes.Buffer
	w := NewBlockWriter(&buf, 13)
	if err := w.Append(kv.NewGenerator(3, kv.DistUniform).Generate(0, 20)); err != nil {
		f.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(append([]byte(nil), valid...))
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:blockHeader-1])
	mutated := append([]byte(nil), valid...)
	mutated[blockHeader+3] ^= 0x40
	f.Add(mutated)
	// The CRC trailer: a flipped CRC bit, a flipped bit of its zero
	// extension, and a whole frame of the retired FNV-trailer format.
	block1 := blockHeader + 13*kv.RecordSize + blockTrailer
	for _, off := range []int{block1 - 1, block1 - blockTrailer} {
		mutated = append([]byte(nil), valid...)
		mutated[off] ^= 0x01
		f.Add(mutated)
	}
	retired := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(retired[0:4], retiredMagic)
	binary.BigEndian.PutUint64(retired[block1-blockTrailer:], fnv64a(retired[blockHeader:block1-blockTrailer]))
	f.Add(retired)

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzReadAll(t, data)
	})
}

// fuzzReadAll is the shared fuzz oracle: reading arbitrary bytes must end
// in io.EOF or an error — never a panic, never unaligned records, never
// more records than the input could possibly frame.
func fuzzReadAll(t *testing.T, data []byte) {
	rd := NewRunReader(bytes.NewReader(data))
	total := 0
	for {
		b, err := rd.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			return // rejected: fine, as long as it didn't panic
		}
		if b.Size()%kv.RecordSize != 0 {
			t.Fatalf("reader delivered %d non-record-aligned bytes", b.Size())
		}
		total += b.Len()
		if total > 1<<22 {
			t.Fatalf("reader delivered more records than any %d-byte input can frame", len(data))
		}
	}
}

// FuzzRunReaderV2 aims the fuzzer at the prefix-truncated frame decoder:
// seeds cover valid v2 files, torn frames at every section boundary,
// checksum-preserving lcp corruption, and v1/v2 magic confusion, so
// mutations explore the reconstruction loop's bounds checks.
func FuzzRunReaderV2(f *testing.F) {
	recs := kv.NewGenerator(5, kv.DistUniform).Generate(0, 40)
	recs.Sort()
	var buf bytes.Buffer
	for _, blk := range []kv.Records{recs.Slice(0, 20), recs.Slice(20, 40)} {
		if err := writeBlockV2(&buf, encodeBlockV2(nil, blk), blk.Len()); err != nil {
			f.Fatal(err)
		}
	}
	valid := buf.Bytes()
	f.Add([]byte{})
	f.Add(append([]byte(nil), valid...))
	// Torn at the encLen field, mid-payload, and mid-checksum.
	f.Add(valid[:blockHeader+2])
	f.Add(valid[:blockHeader+4+33])
	f.Add(valid[:len(valid)-3])
	// Checksum-preserving lcp damage: first record claiming a prefix, and
	// a shifted lcp that derails the decode positions.
	tampered := append([]byte(nil), valid...)
	tampered[12] = 4
	f.Add(resealV2(tampered))
	tampered = append([]byte(nil), valid...)
	tampered[12+1+kv.KeySize+kv.ValueSize] = 9
	f.Add(resealV2(tampered))
	// Magic confusion in both directions.
	confused := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(confused[0:4], blockMagic)
	f.Add(confused)
	var v1buf bytes.Buffer
	w := NewBlockWriter(&v1buf, 40)
	if err := w.Append(recs); err != nil {
		f.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		f.Fatal(err)
	}
	v1 := v1buf.Bytes()
	binary.BigEndian.PutUint32(v1[0:4], blockMagicV2)
	f.Add(v1)
	// The CRC trailer's zero extension, and the retired v2 magic.
	tampered = append([]byte(nil), valid...)
	tampered[12+binary.BigEndian.Uint32(tampered[8:12])] ^= 0x80
	f.Add(tampered)
	retired := append([]byte(nil), valid...)
	binary.BigEndian.PutUint32(retired[0:4], retiredMagicV2)
	f.Add(retired)

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzReadAll(t, data)
	})
}

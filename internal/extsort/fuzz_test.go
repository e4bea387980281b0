package extsort

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
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
	// A frame of the retired prefix-truncated layout (CTS4).
	recs := kv.NewGenerator(5, kv.DistUniform).Generate(0, 20)
	recs.Sort()
	f.Add(retiredFrame(retiredMagicCompact, recs))

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzReadAll(t, data)
	})
}

// fuzzReadAll is the fuzz oracle: reading arbitrary bytes must end in
// io.EOF or an error — never a panic, never unaligned records, never more
// records than the input could possibly frame, and never a record from a
// file whose first frame carries a magic other than CTS3.
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
		if binary.BigEndian.Uint32(data) != blockMagic {
			t.Fatalf("reader delivered records under magic %#x", binary.BigEndian.Uint32(data))
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

// FuzzMergeRuns: duplicate-heavy records dealt at random to up to eight
// sorted run files and an in-memory tail merge to the standard library's
// sort of the whole records. The dealing puts equal keys in every source in
// no particular order, so a merge that let anything but the values decide
// between equal keys would misplace them.
func FuzzMergeRuns(f *testing.F) {
	f.Add(uint64(1), uint16(600), uint8(3), uint8(7))
	f.Add(uint64(2), uint16(4000), uint8(7), uint8(64))
	f.Add(uint64(3), uint16(50), uint8(0), uint8(1))
	f.Add(uint64(4), uint16(0), uint8(2), uint8(13))
	f.Fuzz(func(t *testing.T, seed uint64, rows uint16, runs, blockRows uint8) {
		n, k := int(rows%5000), int(runs%8)
		input := kv.NewGenerator(seed, kv.DistDupHeavy).Generate(0, int64(n))
		rng := rand.New(rand.NewPCG(seed, 49))
		sources := make([]kv.Records, k+1) // the runs, then the tail
		for i := range n {
			s := rng.IntN(k + 1)
			sources[s] = sources[s].Append(input.Record(i))
		}
		var paths []string
		for i, src := range sources[:k] {
			src.Sort()
			path := filepath.Join(t.TempDir(), fmt.Sprintf("run%d", i))
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			w := NewBlockWriter(f, 1+int(blockRows))
			if err := w.Append(src); err != nil {
				t.Fatal(err)
			}
			if err := errors.Join(w.Finish(), f.Close()); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, path)
		}
		tail := sources[k]
		tail.Sort()
		m, err := newMerger(paths, tail)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		var got kv.Records
		if err := m.Drain(1+int(blockRows), func(b kv.Records) error {
			got = got.AppendRecords(b)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want := input.Clone()
		want.Sort()
		if !got.Equal(want) {
			t.Fatalf("seed %d: %d rows in %d runs and a tail merge out of order", seed, n, k)
		}
	})
}

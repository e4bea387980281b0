package partition

import (
	"bytes"
	"sort"
	"testing"

	"codedterasort/internal/kv"
)

// FuzzSplitters drives SelectSplitters with arbitrary sample buffers and
// partition counts: a buffer that is not a whole number of keys must
// error, everything else must yield strictly ascending boundaries that
// NewSplitters accepts, and the resulting Partition must agree with a
// linear-scan oracle on the sample keys, the boundaries themselves, and
// their immediate neighbours (the boundary-ownership edge cases).
func FuzzSplitters(f *testing.F) {
	f.Add([]byte{}, 4)
	f.Add(bytes.Repeat([]byte{0xFF}, 3*kv.KeySize), 5)
	f.Add(bytes.Join(UniformBounds(9), nil), 8)
	f.Add([]byte{1, 2, 3}, 2)
	f.Add(kv.NewGenerator(1, kv.DistZipf).Generate(0, 64).Keys(), 16)
	f.Fuzz(func(t *testing.T, buf []byte, kRaw int) {
		k := kRaw%64 + 1
		if k <= 0 {
			k += 64
		}
		bounds, err := SelectSplitters(buf, k)
		if len(buf)%kv.KeySize != 0 {
			if err == nil {
				t.Fatalf("corrupted %d-byte buffer accepted", len(buf))
			}
			return
		}
		if err != nil {
			t.Fatalf("whole-key buffer rejected: %v", err)
		}
		if len(bounds) != k-1 {
			t.Fatalf("%d bounds for k=%d", len(bounds), k)
		}
		s, err := NewSplitters(bounds)
		if err != nil {
			t.Fatalf("bounds not strictly ascending: %v", err)
		}
		probes := make([][]byte, 0, len(buf)/kv.KeySize+3*len(bounds))
		for i := 0; i+kv.KeySize <= len(buf); i += kv.KeySize {
			probes = append(probes, buf[i:i+kv.KeySize])
		}
		for _, b := range bounds {
			probes = append(probes, b)
			if p := predecessor(b); p != nil {
				probes = append(probes, p)
			}
			if n := successor(b); n != nil {
				probes = append(probes, n)
			}
		}
		for _, p := range probes {
			got := s.Partition(p)
			want := len(bounds)
			for i, b := range bounds {
				if bytes.Compare(p, b) < 0 {
					want = i
					break
				}
			}
			if got != want {
				t.Fatalf("Partition(% x) = %d, oracle %d (bounds %x)", p, got, want, bounds)
			}
		}
		// Boundary keys belong to the upper partition, and partitions are
		// ordered: each boundary maps one past its predecessor's range.
		for i, b := range bounds {
			if s.Partition(b) != i+1 {
				t.Fatalf("bound %d not the smallest key of partition %d", i, i+1)
			}
		}
		if !sort.SliceIsSorted(bounds, func(i, j int) bool { return bytes.Compare(bounds[i], bounds[j]) < 0 }) {
			t.Fatal("bounds not sorted")
		}
	})
}

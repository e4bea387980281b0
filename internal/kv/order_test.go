package kv

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// stableReference is the kernel's contract spelled with the standard
// library: the concatenation of parts, stably sorted by full key.
func stableReference(parts []Records) Records {
	var all Records
	for _, p := range parts {
		all = all.AppendRecords(p)
	}
	idx := make([]int, all.Len())
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return bytes.Compare(all.Key(a), all.Key(b)) })
	out := MakeRecords(all.Len())
	for _, i := range idx {
		out = out.Append(all.Record(i))
	}
	return out
}

// splitAt cuts r at the given ascending row boundaries; equal neighbours
// make empty parts.
func splitAt(r Records, cuts ...int) []Records {
	var parts []Records
	prev := 0
	for _, c := range append(cuts, r.Len()) {
		parts = append(parts, r.Slice(prev, c))
		prev = c
	}
	return parts
}

// splitInto cuts r into k parts at random boundaries, the second (when
// there is one) and the last always empty.
func splitInto(r Records, k int, rng *rand.Rand) []Records {
	cuts := make([]int, k-1)
	for i := range cuts {
		cuts[i] = rng.Intn(r.Len() + 1)
	}
	slices.Sort(cuts)
	if k > 2 {
		cuts[1] = cuts[0]
		cuts[k-2] = r.Len()
	}
	return splitAt(r, cuts...)
}

func gatherAll(procs int, parts []Records) Records {
	var o Order
	o.Sort(procs, parts...)
	return o.Gather(Records{}, 0, o.Len())
}

// checkOrder holds the gathered output of parts to the reference, byte for
// byte, at every goroutine budget.
func checkOrder(t *testing.T, name string, parts []Records) {
	t.Helper()
	want := stableReference(parts)
	for _, procs := range []int{1, 2, 4, 7} {
		if got := gatherAll(procs, parts); !got.Equal(want) {
			t.Fatalf("%s: %d parts, procs=%d: differs from the stable reference at byte %d",
				name, len(parts), procs, firstDiff(got, want))
		}
	}
}

// TestSortOrderMatchesStableReference: every distribution, above and below
// the size where goroutines join in, split into 1, 3 and 12 buffers.
// DistDupHeavy (64 distinct keys, distinct values) makes the tie rule —
// buffers in argument order, rows ascending — carry most of the order.
func TestSortOrderMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, dist := range allDistributions {
		for _, n := range []int64{700, 9000} {
			base := NewGenerator(uint64(n), dist).Generate(0, n)
			for _, k := range []int{1, 3, 12} {
				checkOrder(t, fmt.Sprintf("%v n=%d", dist, n), splitInto(base, k, rng))
			}
		}
	}
}

// TestSortOrderEdgeCases: the sizes around the insertion cutoff, and keys
// built so that one step of the kernel decides everything — no digit
// discriminates, only byte 8 or only byte 9 does, or one prefix digit does
// and the other seven are skipped.
func TestSortOrderEdgeCases(t *testing.T) {
	for _, n := range []int64{0, 1, 2, insertionMaxRefs, insertionMaxRefs + 1, 63, 64} {
		base := NewGenerator(3, DistUniform).Generate(0, n)
		checkOrder(t, fmt.Sprintf("n=%d", n), []Records{base})
		checkOrder(t, fmt.Sprintf("n=%d", n), splitAt(base, int(n/3), int(n/3), int(n/2)))
	}
	shaped := func(shape func(key []byte, i int)) []Records {
		base := NewGenerator(5, DistUniform).Generate(0, 5000)
		for i := 0; i < base.Len(); i++ {
			key := base.Key(i)
			copy(key, "\x07\x07\x07\x07\x07\x07\x07\x07\x07\x07")
			shape(key, i)
		}
		return splitAt(base, 1234, 1234, 4000)
	}
	checkOrder(t, "identical keys", shaped(func([]byte, int) {}))
	checkOrder(t, "byte 8 only", shaped(func(key []byte, i int) { key[8] = byte(i * 131) }))
	checkOrder(t, "byte 9 only", shaped(func(key []byte, i int) { key[9] = byte(i * 131) }))
	checkOrder(t, "shared 7-byte prefix", shaped(func(key []byte, i int) { key[7] = byte(i * 131) }))
	checkOrder(t, "bytes 7-9", shaped(func(key []byte, i int) {
		key[7], key[8], key[9] = byte(i%3), byte(i*37), byte(i*101)
	}))
}

// TestGatherWindowsTile: Gather over any cover of [0, n) by consecutive
// windows — one block at a time is how run generation writes — appends up
// to the full output.
func TestGatherWindowsTile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	parts := splitInto(NewGenerator(11, DistZipf).Generate(0, 10000), 3, rng)
	want := stableReference(parts)
	for _, procs := range []int{1, 4} {
		var o Order
		o.Sort(procs, parts...)
		got := MakeRecords(16)
		for from := 0; from < o.Len(); {
			to := min(from+rng.Intn(6000), o.Len())
			got = o.Gather(got, from, to)
			from = to
		}
		if !got.Equal(want) {
			t.Fatalf("procs=%d: tiled gather differs at byte %d", procs, firstDiff(got, want))
		}
		if mid := o.Gather(Records{}, 100, 4321); !mid.Equal(want.Slice(100, 4321)) {
			t.Fatalf("procs=%d: window [100, 4321) is not that slice of the output", procs)
		}
	}
}

// TestOrderReuse: an Order sorted again — over fewer, then more records, as
// a Sorter's runs do — forgets the previous input.
func TestOrderReuse(t *testing.T) {
	var o Order
	for _, n := range []int64{5000, 10, 0, 8000} {
		parts := []Records{NewGenerator(uint64(n), DistDupHeavy).Generate(0, n)}
		o.Sort(2, parts...)
		if got := o.Gather(Records{}, 0, o.Len()); !got.Equal(stableReference(parts)) {
			t.Fatalf("n=%d: reused order differs from the reference", n)
		}
	}
}

// TestPermuteMatchesGather: the in-place form (what SortRadixMSD is) leaves
// the buffer holding exactly what a gather would have produced.
func TestPermuteMatchesGather(t *testing.T) {
	for _, dist := range []Distribution{DistUniform, DistSorted, DistDupHeavy} {
		for _, n := range []int64{0, 1, 2, 100, 6000} {
			base := NewGenerator(21, dist).Generate(0, n)
			want := stableReference([]Records{base})
			for _, procs := range []int{1, 4} {
				got := base.Clone()
				got.SortRadixMSD(procs)
				if !got.Equal(want) {
					t.Fatalf("%v n=%d procs=%d: in-place order differs at byte %d", dist, n, procs, firstDiff(got, want))
				}
			}
		}
	}
}

// FuzzSortOrder: generated keys ANDed with an arbitrary per-byte mask (so
// digits, prefixes and whole keys collide in arbitrary patterns), cut at
// arbitrary boundaries, order exactly as the stable reference does — below
// and above the size where goroutines join in.
func FuzzSortOrder(f *testing.F) {
	f.Add(uint64(1), uint16(10), []byte{}, uint16(0), uint16(0), uint8(1))
	f.Add(uint64(2), uint16(700), []byte{0xff, 0, 0, 0, 0, 0, 0, 0, 0x01, 0x80}, uint16(17), uint16(17), uint8(4))
	f.Add(uint64(3), uint16(5000), []byte{0, 0, 0x03}, uint16(300), uint16(4999), uint8(2))
	f.Add(uint64(4), uint16(8191), []byte{0, 0, 0, 0, 0, 0, 0, 0xc0, 0xff, 0xff}, uint16(1), uint16(2), uint8(7))
	f.Fuzz(func(t *testing.T, seed uint64, rows uint16, mask []byte, cutA, cutB uint16, procs uint8) {
		n := int(rows % 8192)
		base := NewGenerator(seed, DistUniform).Generate(0, int64(n))
		for i := 0; i < n && len(mask) > 0; i++ {
			for j, b := range base.Key(i) {
				base.Key(i)[j] = b & mask[j%len(mask)]
			}
		}
		a, b := int(cutA)%(n+1), int(cutB)%(n+1)
		parts := splitAt(base, min(a, b), max(a, b))
		want := stableReference(parts)
		if got := gatherAll(int(procs%8), parts); !got.Equal(want) {
			t.Fatalf("n=%d mask=%x cuts=%d,%d procs=%d: differs from the stable reference at byte %d",
				n, mask, a, b, procs%8, firstDiff(got, want))
		}
	})
}

var benchSink uint64

// BenchmarkSortOrder is what Reduce does to one partition: order 250 000
// rows held in four buffers, gather them, digest the output.
func BenchmarkSortOrder(b *testing.B) {
	const rows = 250000
	for _, dist := range []Distribution{DistUniform, DistZipf, DistDupHeavy} {
		parts := splitAt(NewGenerator(1, dist).Generate(0, rows), rows/4, rows/2, 3*rows/4)
		for _, procs := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("%v/%s", dist, benchProcsName(procs)), func(b *testing.B) {
				b.SetBytes(rows * RecordSize)
				var o Order
				for b.Loop() {
					o.Sort(procs, parts...)
					out := o.Gather(MakeRecords(o.Len()), 0, o.Len())
					benchSink += out.Checksum()
				}
			})
		}
	}
}

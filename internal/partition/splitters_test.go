package partition

import (
	"bytes"
	"reflect"
	"testing"

	"codedterasort/internal/kv"
)

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		name string
		want Policy
		ok   bool
	}{
		{"", PolicyUniform, true},
		{"uniform", PolicyUniform, true},
		{"sample", PolicySample, true},
		{"Sample", "", false},
		{"quantile", "", false},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.name)
		if c.ok && (err != nil || got != c.want) {
			t.Fatalf("ParsePolicy(%q) = %v, %v, want %v", c.name, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Fatalf("ParsePolicy(%q) accepted", c.name)
		}
	}
}

// flatKeys concatenates whole keys for SelectSplitters input.
func flatKeys(ks ...[]byte) []byte {
	var out []byte
	for _, k := range ks {
		out = append(out, k...)
	}
	return out
}

func TestSelectSplittersDegenerate(t *testing.T) {
	allEqual := make([][]byte, 12)
	for i := range allEqual {
		allEqual[i] = key(0x77, 0x01)
	}
	twoDistinct := [][]byte{key(0x10), key(0x10), key(0x10), key(0x20), key(0x20), key(0x20)}
	cases := []struct {
		name   string
		sample [][]byte
		k      int
	}{
		{"all equal keys, k past distinct", allEqual, 5},
		{"fewer distinct than k", twoDistinct, 4},
		{"single key", [][]byte{key(0x42)}, 8},
		{"k of 2 over duplicates", allEqual, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bounds, err := SelectSplitters(flatKeys(c.sample...), c.k)
			if err != nil {
				t.Fatal(err)
			}
			if len(bounds) != c.k-1 {
				t.Fatalf("%d bounds, want %d", len(bounds), c.k-1)
			}
			if _, err := NewSplitters(bounds); err != nil {
				t.Fatalf("repaired bounds rejected: %v", err)
			}
		})
	}
}

func TestSelectSplittersErrors(t *testing.T) {
	if _, err := SelectSplitters(make([]byte, kv.KeySize+1), 4); err == nil {
		t.Fatal("corrupted buffer (not a whole number of keys) accepted")
	}
	if _, err := SelectSplitters(nil, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := SelectSplitters(nil, -3); err == nil {
		t.Fatal("negative k accepted")
	}
}

func TestSelectSplittersEmptySampleIsUniform(t *testing.T) {
	bounds, err := SelectSplitters(nil, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bounds, UniformBounds(6)) {
		t.Fatalf("empty sample bounds %x, want uniform %x", bounds, UniformBounds(6))
	}
	if bounds, err = SelectSplitters(nil, 1); err != nil || bounds != nil {
		t.Fatalf("k=1 should give no bounds, got %x, %v", bounds, err)
	}
}

// TestSelectSplittersGatherOrderIndependent: the sample arrives in
// whatever order the gather delivers it; the splitters must not depend
// on that order.
func TestSelectSplittersGatherOrderIndependent(t *testing.T) {
	r := kv.NewGenerator(9, kv.DistZipf).Generate(0, 512)
	fwd := make([]byte, 0, r.Len()*kv.KeySize)
	rev := make([]byte, 0, r.Len()*kv.KeySize)
	for i := 0; i < r.Len(); i++ {
		fwd = append(fwd, r.Key(i)...)
		rev = append(rev, r.Key(r.Len()-1-i)...)
	}
	a, err := SelectSplitters(fwd, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SelectSplitters(rev, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("splitters depend on sample gather order")
	}
}

// TestSelectSplittersSaturation drives the backward repair pass: a sample
// pinned at the top of the key space saturates the forward nudge, and the
// boundaries must be walked back below the ceiling, still strictly
// ascending with the maximal key as the last bound.
func TestSelectSplittersSaturation(t *testing.T) {
	maxKey := bytes.Repeat([]byte{0xFF}, kv.KeySize)
	sample := make([][]byte, 9)
	for i := range sample {
		sample[i] = maxKey
	}
	bounds, err := SelectSplitters(flatKeys(sample...), 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSplitters(bounds); err != nil {
		t.Fatalf("saturated repair not ascending: %v", err)
	}
	if !bytes.Equal(bounds[len(bounds)-1], maxKey) {
		t.Fatalf("last bound % x, want the maximal key", bounds[len(bounds)-1])
	}
}

func TestPredecessor(t *testing.T) {
	if got, want := predecessor(key(0x01)), append([]byte{0}, bytes.Repeat([]byte{0xFF}, kv.KeySize-1)...); !bytes.Equal(got, want) {
		t.Fatalf("borrow: % x, want % x", got, want)
	}
	one := key()
	one[kv.KeySize-1] = 1
	if got := predecessor(one); !bytes.Equal(got, key()) {
		t.Fatalf("predecessor of 1 = % x, want zero key", got)
	}
	if predecessor(key()) != nil {
		t.Fatal("predecessor of the zero key should be nil")
	}
}

// TestSampledBalanceProperty: for every skewed generator, splitters from a
// stride sample hold each partition within 1.5x of the even share N/K —
// the property sampled partitioning exists to provide. (The dup-heavy
// distribution has only 64 distinct keys, so boundary granularity alone
// costs up to one key's worth of rows per partition; 1.5x covers that
// plus sampling noise with margin.)
func TestSampledBalanceProperty(t *testing.T) {
	const n, k, c = 40000, 8, 1.5
	for _, dist := range kv.SkewedDistributions {
		t.Run(dist.String(), func(t *testing.T) {
			data := kv.NewGenerator(31, dist).Generate(0, n)
			stride := SampleStride(n, 0)
			keys := make([]byte, 0, DefaultSampleSize*kv.KeySize)
			for row := int64(0); row < n; row += stride {
				keys = append(keys, data.Key(int(row))...)
			}
			bounds, err := SelectSplitters(keys, k)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewSplitters(bounds)
			if err != nil {
				t.Fatal(err)
			}
			for p, count := range Histogram(s, data) {
				if float64(count) > c*float64(n)/float64(k) {
					t.Fatalf("partition %d holds %d of %d rows, above %.1fx the even share", p, count, n, c)
				}
			}
		})
	}
}

func TestUniformBoundsMatchUniform(t *testing.T) {
	for _, k := range []int{2, 3, 7, 16} {
		s, err := NewSplitters(UniformBounds(k))
		if err != nil {
			t.Fatal(err)
		}
		u := NewUniform(k)
		r := kv.NewGenerator(uint64(k), kv.DistUniform).Generate(0, 2000)
		for i := 0; i < r.Len(); i++ {
			if s.Partition(r.Key(i)) != u.Partition(r.Key(i)) {
				t.Fatalf("k=%d: uniform bounds disagree with Uniform on key % x", k, r.Key(i))
			}
		}
		for i, b := range UniformBounds(k) {
			if got := u.Partition(b); got != i+1 {
				t.Fatalf("k=%d: bound %d is not the smallest key of partition %d (got %d)", k, i, i+1, got)
			}
			if below := predecessor(b); u.Partition(below) != i {
				t.Fatalf("k=%d: key below bound %d not in partition %d", k, i, i)
			}
		}
	}
}

func TestImbalance(t *testing.T) {
	cases := []struct {
		counts []int
		want   float64
	}{
		{nil, 0},
		{[]int{0, 0, 0}, 0},
		{[]int{10, 10, 10, 10}, 1},
		{[]int{30, 10}, 1.5},
		{[]int{8, 0, 0, 0}, 4},
	}
	for _, c := range cases {
		if got := Imbalance(c.counts); got != c.want {
			t.Fatalf("Imbalance(%v) = %v, want %v", c.counts, got, c.want)
		}
	}
}

func TestSampleStride(t *testing.T) {
	cases := []struct {
		rows int64
		size int
		want int64
	}{
		{1000, 100, 10},
		{50, 100, 1},
		{0, 100, 1},
		{1 << 20, 0, (1 << 20) / DefaultSampleSize},
		{DefaultSampleSize - 1, 0, 1},
	}
	for _, c := range cases {
		if got := SampleStride(c.rows, c.size); got != c.want {
			t.Fatalf("SampleStride(%d, %d) = %d, want %d", c.rows, c.size, got, c.want)
		}
	}
}

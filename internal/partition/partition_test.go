package partition

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"codedterasort/internal/kv"
)

func key(b ...byte) []byte {
	k := make([]byte, kv.KeySize)
	copy(k, b)
	return k
}

func TestUniformBounds(t *testing.T) {
	u := NewUniform(4)
	if u.NumPartitions() != 4 {
		t.Fatalf("NumPartitions = %d", u.NumPartitions())
	}
	cases := []struct {
		key  []byte
		want int
	}{
		{key(0x00), 0},
		{key(0x3F, 0xFF), 0},
		{key(0x40), 1},
		{key(0x7F), 1},
		{key(0x80), 2},
		{key(0xBF), 2},
		{key(0xC0), 3},
		{key(0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF), 3},
	}
	for _, c := range cases {
		if got := u.Partition(c.key); got != c.want {
			t.Fatalf("Partition(% x) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestUniformCoversAllPartitions(t *testing.T) {
	for _, k := range []int{1, 2, 3, 16, 20, 64} {
		u := NewUniform(k)
		r := kv.NewGenerator(uint64(k), kv.DistUniform).Generate(0, 4000)
		h := Histogram(u, r)
		for p, c := range h {
			if c == 0 && k <= 20 {
				t.Fatalf("k=%d: partition %d empty over 4000 uniform records", k, p)
			}
		}
	}
}

func TestUniformInRangeQuick(t *testing.T) {
	u := NewUniform(7)
	f := func(raw [10]byte) bool {
		p := u.Partition(raw[:])
		return p >= 0 && p < 7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformMonotoneQuick(t *testing.T) {
	// Larger keys never map to smaller partitions (ordered partitions,
	// paper Section III-A2: p in P_i, p' in P_{i+1} implies p < p').
	u := NewUniform(16)
	f := func(a, b [10]byte) bool {
		ka, kb := a[:], b[:]
		if bytes.Compare(ka, kb) > 0 {
			ka, kb = kb, ka
		}
		return u.Partition(ka) <= u.Partition(kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformBalance(t *testing.T) {
	u := NewUniform(16)
	r := kv.NewGenerator(77, kv.DistUniform).Generate(0, 64000)
	h := Histogram(u, r)
	want := r.Len() / 16
	for p, c := range h {
		if c < want*8/10 || c > want*12/10 {
			t.Fatalf("partition %d has %d records, want about %d (%v)", p, c, want, h)
		}
	}
}

// TestBEPrefix64MatchesByteLoop holds both paths of bePrefix64 — the
// single load for keys of 8 bytes or more, the zero-padded tail for shorter
// ones — to the byte-by-byte form it replaced.
func TestBEPrefix64MatchesByteLoop(t *testing.T) {
	loop := func(key []byte) uint64 {
		var p uint64
		n := len(key)
		if n > 8 {
			n = 8
		}
		for i := 0; i < n; i++ {
			p |= uint64(key[i]) << uint(56-8*i)
		}
		return p
	}
	src := []byte{0xf1, 0x02, 0xe3, 0x04, 0xd5, 0x06, 0xc7, 0x08, 0xb9, 0x0a, 0xab, 0x0c}
	for n := 0; n <= len(src); n++ {
		if got, want := bePrefix64(src[:n]), loop(src[:n]); got != want {
			t.Errorf("%d-byte key: prefix %#x, byte loop %#x", n, got, want)
		}
	}
	if err := quick.Check(func(key []byte) bool { return bePrefix64(key) == loop(key) }, nil); err != nil {
		t.Error(err)
	}
}

func TestNewUniformPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewUniform(0)
}

func TestSplittersBasic(t *testing.T) {
	s, err := NewSplitters([][]byte{key(0x40), key(0x80), key(0xC0)})
	if err != nil {
		t.Fatal(err)
	}
	if s.NumPartitions() != 4 {
		t.Fatalf("NumPartitions = %d", s.NumPartitions())
	}
	cases := []struct {
		key  []byte
		want int
	}{
		{key(0x00), 0},
		{key(0x3F, 0xFF), 0},
		{key(0x40), 1}, // boundary belongs to the upper partition
		{key(0x80), 2},
		{key(0xBF, 0x01), 2},
		{key(0xC0), 3},
		{key(0xFF), 3},
	}
	for _, c := range cases {
		if got := s.Partition(c.key); got != c.want {
			t.Fatalf("Partition(% x) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestSplittersRejectsBadBounds(t *testing.T) {
	if _, err := NewSplitters([][]byte{{1, 2}}); err == nil {
		t.Fatalf("short splitter accepted")
	}
	if _, err := NewSplitters([][]byte{key(0x80), key(0x40)}); err == nil {
		t.Fatalf("descending splitters accepted")
	}
	if _, err := NewSplitters([][]byte{key(0x80), key(0x80)}); err == nil {
		t.Fatalf("duplicate splitters accepted")
	}
}

func TestSplittersMatchUniformOnUniformBounds(t *testing.T) {
	// Splitters at i*2^64/K must agree with Uniform everywhere.
	const k = 8
	bounds := make([][]byte, k-1)
	for i := 1; i < k; i++ {
		b := make([]byte, kv.KeySize)
		v := uint64(i) << 61 // i * 2^64 / 8
		for j := 0; j < 8; j++ {
			b[j] = byte(v >> uint(56-8*j))
		}
		bounds[i-1] = b
	}
	s, err := NewSplitters(bounds)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniform(k)
	r := kv.NewGenerator(5, kv.DistUniform).Generate(0, 5000)
	for i := 0; i < r.Len(); i++ {
		if s.Partition(r.Key(i)) != u.Partition(r.Key(i)) {
			t.Fatalf("disagreement on key % x", r.Key(i))
		}
	}
}

func TestFromSampleBalancesSkewedInput(t *testing.T) {
	const k = 8
	data := kv.NewGenerator(13, kv.DistSkewed).Generate(0, 40000)
	sample := data.Slice(0, 2000)
	s, err := FromSample(sample, k)
	if err != nil {
		t.Fatal(err)
	}
	hSampled := Histogram(s, data)
	hUniform := Histogram(NewUniform(k), data)
	maxS, maxU := 0, 0
	for i := 0; i < k; i++ {
		if hSampled[i] > maxS {
			maxS = hSampled[i]
		}
		if hUniform[i] > maxU {
			maxU = hUniform[i]
		}
	}
	// The sampled partitioner must be much better balanced on skewed data.
	if maxS >= maxU {
		t.Fatalf("sampling did not help: sampled max %d vs uniform max %d", maxS, maxU)
	}
	if maxS > 2*data.Len()/k {
		t.Fatalf("sampled partitioner still unbalanced: max %d of %d", maxS, data.Len())
	}
}

func TestFromSampleErrors(t *testing.T) {
	s, err := FromSample(kv.MakeRecords(0), 4)
	if err != nil {
		t.Fatalf("empty sample must fall back to uniform bounds: %v", err)
	}
	if got, want := s.Bounds(), UniformBounds(4); !reflect.DeepEqual(got, want) {
		t.Fatalf("empty-sample bounds %x, want uniform %x", got, want)
	}
	if _, err := FromSample(kv.NewGenerator(1, kv.DistUniform).Generate(0, 10), 0); err == nil {
		t.Fatalf("k=0 accepted")
	}
	s, err = FromSample(kv.NewGenerator(1, kv.DistUniform).Generate(0, 10), 1)
	if err != nil || s.NumPartitions() != 1 {
		t.Fatalf("k=1 should give the trivial partitioner, got %v, %v", s.NumPartitions(), err)
	}
}

func TestFromSampleDuplicateKeys(t *testing.T) {
	// A sample of identical keys cannot produce distinct splitters without
	// nudging; FromSample must either nudge or report an error, never
	// produce non-ascending bounds.
	rec := make([]byte, kv.RecordSize)
	rec[0] = 0x55
	r := kv.MakeRecords(20)
	for i := 0; i < 20; i++ {
		r = r.Append(rec)
	}
	s, err := FromSample(r, 4)
	if err != nil {
		return // acceptable: reported degenerate sample
	}
	b := s.Bounds()
	for i := 1; i < len(b); i++ {
		if bytes.Compare(b[i-1], b[i]) >= 0 {
			t.Fatalf("non-ascending nudged bounds")
		}
	}
}

func TestSuccessor(t *testing.T) {
	if got := successor(key(0x01)); !bytes.Equal(got, append(key(0x01)[:9], 0x01)) {
		t.Fatalf("successor increments last byte: % x", got)
	}
	allFF := bytes.Repeat([]byte{0xFF}, kv.KeySize)
	if successor(allFF) != nil {
		t.Fatalf("successor of max key should be nil")
	}
	carry := append(bytes.Repeat([]byte{0}, 9), 0xFF)
	got := successor(carry)
	want := key(0, 0, 0, 0, 0, 0, 0, 0, 1, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("carry: % x, want % x", got, want)
	}
}

func TestSplitPartitionsEveryRecordExactlyOnce(t *testing.T) {
	u := NewUniform(6)
	r := kv.NewGenerator(3, kv.DistUniform).Generate(0, 3000)
	parts := Split(u, r)
	if len(parts) != 6 {
		t.Fatalf("parts = %d", len(parts))
	}
	total, sum := 0, uint64(0)
	for j, p := range parts {
		total += p.Len()
		sum += p.Checksum()
		for i := 0; i < p.Len(); i++ {
			if u.Partition(p.Key(i)) != j {
				t.Fatalf("record in wrong partition")
			}
		}
	}
	if total != r.Len() || sum != r.Checksum() {
		t.Fatalf("Split lost or duplicated records: %d/%d", total, r.Len())
	}
}

func TestSplitPreservesOrderWithinPartition(t *testing.T) {
	u := NewUniform(2)
	r := kv.NewGenerator(4, kv.DistUniform).Generate(0, 400)
	parts := Split(u, r)
	// Row ids embedded in values must be increasing within each partition.
	for _, p := range parts {
		last := int64(-1)
		for i := 0; i < p.Len(); i++ {
			row := int64(0)
			for _, b := range p.Value(i)[:8] {
				row = row<<8 | int64(b)
			}
			if row <= last {
				t.Fatalf("order not preserved: row %d after %d", row, last)
			}
			last = row
		}
	}
}

func TestSplitQuickConservation(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%20) + 1
		u := NewUniform(k)
		r := kv.NewGenerator(seed, kv.DistUniform).Generate(0, 200)
		parts := Split(u, r)
		var sum uint64
		n := 0
		for _, p := range parts {
			sum += p.Checksum()
			n += p.Len()
		}
		return n == r.Len() && sum == r.Checksum()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUniformPartition(b *testing.B) {
	u := NewUniform(16)
	r := kv.NewGenerator(1, kv.DistUniform).Generate(0, 1)
	k := r.Key(0)
	for i := 0; i < b.N; i++ {
		_ = u.Partition(k)
	}
}

func BenchmarkSplit16(b *testing.B) {
	u := NewUniform(16)
	r := kv.NewGenerator(1, kv.DistUniform).Generate(0, 10000)
	b.SetBytes(int64(r.Size()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Split(u, r)
	}
}

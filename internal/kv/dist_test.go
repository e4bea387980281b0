package kv

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestParseDistributionRoundTrip(t *testing.T) {
	all := append([]Distribution{DistUniform, DistSkewed}, SkewedDistributions...)
	for _, d := range all {
		got, err := ParseDistribution(d.String())
		if err != nil || got != d {
			t.Fatalf("ParseDistribution(%q) = %v, %v", d.String(), got, err)
		}
	}
	if got, err := ParseDistribution(""); err != nil || got != DistUniform {
		t.Fatalf("empty name = %v, %v, want uniform", got, err)
	}
	if _, err := ParseDistribution("pareto"); err == nil {
		t.Fatal("unknown distribution accepted")
	}
	if name := Distribution(99).String(); name != "Distribution(99)" {
		t.Fatalf("out-of-range String() = %q", name)
	}
}

// TestDistributionsDeterministic: record i is a pure function of
// (seed, dist, i) for every distribution — the property every rank's
// derivation of the same sampled splitters is built on.
func TestDistributionsDeterministic(t *testing.T) {
	for _, d := range append([]Distribution{DistUniform, DistSkewed}, SkewedDistributions...) {
		a := NewGenerator(7, d).Generate(0, 500)
		b := NewGenerator(7, d).Generate(0, 500)
		if !a.Equal(b) {
			t.Fatalf("%s: regeneration differs", d)
		}
		if c := NewGenerator(8, d).Generate(0, 500); d != DistSorted && a.Equal(c) {
			t.Fatalf("%s: seed ignored", d)
		}
	}
}

// TestDistributionKeyShapes checks the structural promise of each skewed
// distribution — the specific way it breaks uniform range partitioning.
func TestDistributionKeyShapes(t *testing.T) {
	const rows = 4000
	t.Run("zipf heavy head", func(t *testing.T) {
		r := NewGenerator(3, DistZipf).Generate(0, rows)
		low := 0
		for i := 0; i < r.Len(); i++ {
			if binary.BigEndian.Uint32(r.Key(i)[:4]) < 1<<16 {
				low++
			}
		}
		// With theta = 1.1, P(rank < 2^16) = 1 - 2^-1.6, roughly two
		// thirds of the rows; uniform keys would put ~0.002% there.
		if low < rows/2 {
			t.Fatalf("only %d/%d zipf keys in the head", low, rows)
		}
	})
	t.Run("sorted rows are the keys", func(t *testing.T) {
		r := NewGenerator(3, DistSorted).Generate(5, 100)
		for i := 0; i < r.Len(); i++ {
			if got := binary.BigEndian.Uint64(r.Key(i)[:8]); got != uint64(5+i) {
				t.Fatalf("row %d key prefix %d", 5+i, got)
			}
		}
		if !r.IsSorted() {
			t.Fatal("sorted input not sorted")
		}
	})
	t.Run("nearsorted bounded jitter", func(t *testing.T) {
		r := NewGenerator(3, DistNearSorted).Generate(0, rows)
		for i := 0; i < r.Len(); i++ {
			v := int64(binary.BigEndian.Uint64(r.Key(i)[:8]))
			if d := v - int64(i); d < -512 || d > 512 {
				t.Fatalf("row %d displaced by %d, jitter bound 512", i, d)
			}
		}
	})
	t.Run("dupheavy tiny domain", func(t *testing.T) {
		r := NewGenerator(3, DistDupHeavy).Generate(0, rows)
		distinct := map[string]bool{}
		for i := 0; i < r.Len(); i++ {
			distinct[string(r.Key(i))] = true
		}
		if len(distinct) > 64 {
			t.Fatalf("%d distinct whole keys, want at most 64", len(distinct))
		}
		if len(distinct) < 32 {
			t.Fatalf("only %d distinct keys over %d rows", len(distinct), rows)
		}
	})
	t.Run("varprefix nested prefixes", func(t *testing.T) {
		r := NewGenerator(3, DistVarPrefix).Generate(0, rows)
		depths := map[int]int{}
		for i := 0; i < r.Len(); i++ {
			d := 0
			for d < 6 && r.Key(i)[d] == 0x42 {
				d++
			}
			depths[d]++
		}
		for d := 0; d <= 6; d++ {
			if depths[d] == 0 {
				t.Fatalf("no keys at prefix depth %d: %v", d, depths)
			}
		}
	})
}

// TestSkewedRowIDsPreserved: every distribution still embeds the row id in
// the value, so validation by content survives any key rewriting.
func TestSkewedRowIDsPreserved(t *testing.T) {
	for _, d := range SkewedDistributions {
		r := NewGenerator(11, d).Generate(40, 10)
		for i := 0; i < r.Len(); i++ {
			if got := binary.BigEndian.Uint64(r.Value(i)[:8]); got != uint64(40+i) {
				t.Fatalf("%s: row id %d in value, want %d", d, got, 40+i)
			}
		}
	}
}

func TestRecordsKeys(t *testing.T) {
	r := NewGenerator(2, DistUniform).Generate(0, 5)
	flat := r.Keys()
	if len(flat) != 5*KeySize {
		t.Fatalf("flat keys %d bytes, want %d", len(flat), 5*KeySize)
	}
	for i := 0; i < r.Len(); i++ {
		if !bytes.Equal(flat[i*KeySize:(i+1)*KeySize], r.Key(i)) {
			t.Fatalf("key %d mismatch", i)
		}
	}
	if len(MakeRecords(0).Keys()) != 0 {
		t.Fatal("empty records should flatten to no keys")
	}
}

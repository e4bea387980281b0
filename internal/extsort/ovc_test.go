package extsort

import (
	"bytes"
	"encoding/binary"
	"testing"

	"codedterasort/internal/kv"
)

// drainThrough pushes recs through a fresh sorter in small batches (so the
// budget actually forces multi-run merges) and returns the materialized
// output and its residue.
func drainThrough(t *testing.T, recs kv.Records, budget int64) Output {
	t.Helper()
	s, err := NewSorter(t.TempDir(), budget)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const batch = 64
	for i := 0; i < recs.Len(); i += batch {
		end := i + batch
		if end > recs.Len() {
			end = recs.Len()
		}
		if err := s.Append(recs.Slice(i, end)); err != nil {
			t.Fatal(err)
		}
	}
	out, err := DrainSorted(s, 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.SpilledRuns < 2 {
		t.Fatalf("budget %d spilled only %d runs; the merge was not exercised", budget, out.SpilledRuns)
	}
	return out
}

// quantized returns rows records whose keys are drawn from a small domain:
// long stretches of equal and near-equal keys, the worst case for the OVC
// tie path.
func quantized(rows int64, domain uint64) kv.Records {
	recs := kv.NewGenerator(7, kv.DistUniform).Generate(0, rows)
	buf := recs.Bytes()
	for i := 0; i < recs.Len(); i++ {
		key := buf[i*kv.RecordSize : i*kv.RecordSize+kv.KeySize]
		key[0], key[1] = 0, 0
		binary.BigEndian.PutUint64(key[2:], uint64(i)*2654435761%domain)
	}
	return recs
}

// TestOVCMergeMatchesReferenceSort: on distinct keys the merged order must
// be byte-identical to an in-memory sort of the same records, across
// budgets that produce different run counts — the offset-value-coded
// tournament must never reorder anything the plain comparison would not.
func TestOVCMergeMatchesReferenceSort(t *testing.T) {
	input := kv.NewGenerator(41, kv.DistUniform).Generate(0, 4000)
	want := input.Clone()
	want.Sort()
	for _, budget := range []int64{1 << 15, 1 << 16, 1 << 17} {
		out := drainThrough(t, input, budget)
		if !bytes.Equal(out.Records.Bytes(), want.Bytes()) {
			t.Fatalf("budget %d: merged order differs from reference sort", budget)
		}
	}
}

// TestOVCMergeDuplicateHeavy: with keys from a tiny domain (every merge
// step a potential code tie) the output must preserve the input multiset
// and be the reference sort of the whole records; the tie path must
// actually have run.
func TestOVCMergeDuplicateHeavy(t *testing.T) {
	for _, domain := range []uint64{1, 16, 512} {
		input := quantized(4000, domain)
		out := drainThrough(t, input, 1<<16)
		if out.Rows != int64(input.Len()) || out.Checksum != input.Checksum() {
			t.Fatalf("domain %d: multiset changed: %d rows checksum %#x, want %d/%#x",
				domain, out.Rows, out.Checksum, input.Len(), input.Checksum())
		}
		want := input.Clone()
		want.Sort()
		if !out.Records.Equal(want) {
			t.Fatalf("domain %d: duplicate-key merge differs from the reference sort", domain)
		}
		if out.FullCompares == 0 {
			t.Fatalf("domain %d: no code ties on duplicate-heavy keys", domain)
		}
	}
}

// TestOVCDecidesMajorityOnDistinctKeys: the acceptance property of the
// coding — on distinct random keys, most loser-tree matches resolve on the
// cached codes without touching key bytes.
func TestOVCDecidesMajorityOnDistinctKeys(t *testing.T) {
	input := kv.NewGenerator(43, kv.DistUniform).Generate(0, 8000)
	out := drainThrough(t, input, 1<<16)
	total := out.OVCDecided + out.FullCompares
	if total == 0 {
		t.Fatal("multi-run merge recorded no comparisons")
	}
	if out.OVCDecided <= out.FullCompares {
		t.Fatalf("codes decided %d of %d comparisons; full compares dominated", out.OVCDecided, total)
	}
	// A k-way tournament replays ~log2(k) matches per record; anything
	// under one comparison per record means the counters are broken.
	if total < out.Rows {
		t.Fatalf("%d comparisons for %d records merged across %d runs", total, out.Rows, out.SpilledRuns)
	}
}

// TestCompareStatsSingleSource: a merge with one source plays no matches;
// the counters must stay zero and the output must still be complete.
func TestCompareStatsSingleSource(t *testing.T) {
	input := kv.NewGenerator(47, kv.DistUniform).Generate(0, 500)
	s, err := NewSorter(t.TempDir(), 1<<30) // never spills: in-memory tail only
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Append(input); err != nil {
		t.Fatal(err)
	}
	out, err := DrainSorted(s, 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows != 500 || out.SpilledRuns != 0 {
		t.Fatalf("rows=%d runs=%d", out.Rows, out.SpilledRuns)
	}
	if out.OVCDecided != 0 || out.FullCompares != 0 {
		t.Fatalf("single-source merge counted comparisons: ovc=%d full=%d", out.OVCDecided, out.FullCompares)
	}
}

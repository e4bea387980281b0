package kv

import (
	"math/rand"
	"sort"
	"testing"
)

// digestDistributions is every key distribution the generator offers: the
// digest properties below must hold on low-entropy keys (sorted rows, 64
// distinct keys, constant prefixes) as well as on uniform ones.
var digestDistributions = append([]Distribution{DistUniform, DistSkewed}, SkewedDistributions...)

// forEachDigestRecord runs fn on a private copy of each of 1000 generated
// records per distribution.
func forEachDigestRecord(t *testing.T, fn func(t *testing.T, rec []byte, want uint64)) {
	for _, dist := range digestDistributions {
		t.Run(dist.String(), func(t *testing.T) {
			recs := NewGenerator(41, dist).Generate(0, 1000)
			for i := 0; i < recs.Len(); i++ {
				rec := append([]byte(nil), recs.Record(i)...)
				fn(t, rec, ChecksumRecord(rec))
			}
		})
	}
}

// TestDigestDetectsEveryBitFlip: flipping any one of a record's 800 bits
// changes its digest — a guarantee, not a probability, because every step
// of the kernel is a bijection of each input word.
func TestDigestDetectsEveryBitFlip(t *testing.T) {
	forEachDigestRecord(t, func(t *testing.T, rec []byte, want uint64) {
		for bit := 0; bit < RecordSize*8; bit++ {
			rec[bit/8] ^= 1 << (bit % 8)
			if ChecksumRecord(rec) == want {
				t.Fatalf("flip of bit %d left the digest unchanged", bit)
			}
			rec[bit/8] ^= 1 << (bit % 8)
		}
	})
}

// TestDigestIsPositionSensitive: swapping two adjacent unequal bytes, or
// two unequal 8-byte words (same lane or not), changes the digest.
func TestDigestIsPositionSensitive(t *testing.T) {
	forEachDigestRecord(t, func(t *testing.T, rec []byte, want uint64) {
		for i := 0; i+1 < RecordSize; i++ {
			if rec[i] == rec[i+1] {
				continue
			}
			rec[i], rec[i+1] = rec[i+1], rec[i]
			if ChecksumRecord(rec) == want {
				t.Fatalf("transposing bytes %d and %d left the digest unchanged", i, i+1)
			}
			rec[i], rec[i+1] = rec[i+1], rec[i]
		}
		var tmp [8]byte
		swap := func(i, j int) {
			copy(tmp[:], rec[8*i:])
			copy(rec[8*i:8*i+8], rec[8*j:])
			copy(rec[8*j:8*j+8], tmp[:])
		}
		for i := 0; i < 12; i++ {
			for j := i + 1; j < 12; j++ {
				if string(rec[8*i:8*i+8]) == string(rec[8*j:8*j+8]) {
					continue
				}
				swap(i, j)
				if ChecksumRecord(rec) == want {
					t.Fatalf("swapping words %d and %d left the digest unchanged", i, j)
				}
				swap(i, j)
			}
		}
	})
}

// TestDigestNoCollisionsInAMillionRecords: the order-independent sum only
// means something if distinct records have distinct digests.
func TestDigestNoCollisionsInAMillionRecords(t *testing.T) {
	if testing.Short() {
		t.Skip("generates 100 MB of records")
	}
	const rows = 1 << 20
	digests := make([]uint64, 0, rows)
	for d, dist := range digestDistributions {
		// Different seeds: two distributions under one seed share rows.
		share := SplitRows(rows, len(digestDistributions))
		err := NewGenerator(uint64(100+d), dist).GenerateBlocks(share[d], share[d+1]-share[d], 1<<12, func(b Records) error {
			for i := 0; i < b.Len(); i++ {
				digests = append(digests, ChecksumRecord(b.Record(i)))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(digests, func(i, j int) bool { return digests[i] < digests[j] })
	for i := 1; i < len(digests); i++ {
		if digests[i] == digests[i-1] {
			t.Fatalf("two of %d generated records share digest %#x", rows, digests[i])
		}
	}
}

// TestChecksumIsAMultisetDigest: the sum is independent of record order and
// of how the buffer is cut into blocks, equals the sum of the per-record
// digests, and moves when any one record is dropped or duplicated.
func TestChecksumIsAMultisetDigest(t *testing.T) {
	for _, dist := range digestDistributions {
		t.Run(dist.String(), func(t *testing.T) {
			r := NewGenerator(43, dist).Generate(0, 1000)
			sum := r.Checksum()

			var perRecord, perBlock uint64
			for i := 0; i < r.Len(); i++ {
				perRecord += ChecksumRecord(r.Record(i))
			}
			if err := r.ForEachBlock(37, func(b Records) error {
				perBlock += b.Checksum()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if perRecord != sum || perBlock != sum {
				t.Fatalf("sum %#x, per record %#x, per block %#x", sum, perRecord, perBlock)
			}

			shuffled := r.Clone()
			rng := rand.New(rand.NewSource(1))
			for i := shuffled.Len() - 1; i > 0; i-- {
				shuffled.Swap(i, rng.Intn(i+1))
			}
			if shuffled.Checksum() != sum {
				t.Fatal("checksum is order-dependent")
			}

			// A record digesting to 0 could be dropped or duplicated unseen.
			for i := 0; i < r.Len(); i++ {
				if ChecksumRecord(r.Record(i)) == 0 {
					t.Fatalf("record %d digests to 0", i)
				}
			}
			for i := 0; i < r.Len(); i += 50 {
				if r.Slice(0, i).Clone().AppendRecords(r.Slice(i+1, r.Len())).Checksum() == sum {
					t.Fatalf("checksum missed the loss of record %d", i)
				}
				if r.Clone().AppendRecords(r.Slice(i, i+1)).Checksum() == sum {
					t.Fatalf("checksum missed the duplication of record %d", i)
				}
			}
		})
	}
}

// TestChecksumRecordRejectsWrongLength: the kernel is fixed-width; a short
// or long record is a caller bug, not something to digest.
func TestChecksumRecordRejectsWrongLength(t *testing.T) {
	for _, n := range []int{0, RecordSize - 1, RecordSize + 1, 2 * RecordSize} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ChecksumRecord accepted %d bytes", n)
				}
			}()
			ChecksumRecord(make([]byte, n))
		}()
	}
}

package kv

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// referenceRecord is Generator.Record as it stood before the block kernel,
// kept verbatim: the serial per-byte definition of a row. Placement
// replicas, XOR cancellation and every golden digest in the tree depend on
// the kernel agreeing with it on every byte.
func referenceRecord(g *Generator, dst []byte, row int64) {
	if len(dst) != RecordSize {
		panic(fmt.Sprintf("kv: Generator.Record dst of %d bytes", len(dst)))
	}
	// Two independent splitmix streams per row: one for the key material,
	// one for the value filler.
	s := mix64(g.seed ^ mix64(uint64(row)+0x9e3779b97f4a7c15))
	var keyMat [16]byte
	binary.BigEndian.PutUint64(keyMat[0:8], mix64(s+1))
	binary.BigEndian.PutUint64(keyMat[8:16], mix64(s+2))
	copy(dst[:KeySize], keyMat[:KeySize])
	switch g.dist {
	case DistSkewed:
		// Skew: fold the first byte towards zero. b -> b*b/255 keeps the
		// full range but quadratically favors small values.
		b := int(dst[0])
		dst[0] = byte(b * b / 255)
	case DistZipf:
		// Inverse-CDF draw of the rank. u is uniform in (0, 1); the offset
		// keeps it away from 0 so Pow stays finite. math.Pow is only
		// required to be deterministic within one binary, which is all the
		// splitter agreement needs (every rank runs the same build).
		u := (float64(mix64(s+4)>>11) + 0.5) / (1 << 53)
		rank := math.Pow(u, -1/(zipfTheta-1))
		r32 := uint32(math.MaxUint32)
		if rank < float64(math.MaxUint32) {
			r32 = uint32(rank)
		}
		binary.BigEndian.PutUint32(dst[0:4], r32)
	case DistSorted:
		binary.BigEndian.PutUint64(dst[0:8], uint64(row))
	case DistNearSorted:
		jitter := int64(mix64(s+4)%(2*nearSortedJitter+1)) - nearSortedJitter
		v := row + jitter
		if v < 0 {
			v = 0
		}
		binary.BigEndian.PutUint64(dst[0:8], uint64(v))
	case DistDupHeavy:
		// The whole key is a function of the duplicate id, so the input
		// holds exactly dupHeavyDomain distinct keys.
		h := mix64(mix64(s+4)%dupHeavyDomain + 0xd1b54a32d192ed03)
		binary.BigEndian.PutUint64(dst[0:8], h)
		binary.BigEndian.PutUint16(dst[8:10], uint16(h>>48))
	case DistVarPrefix:
		d := int(mix64(s+4) % (varPrefixMaxLen + 1))
		for i := 0; i < d; i++ {
			dst[i] = varPrefixByte
		}
	}
	// Value: row id in the first 8 bytes (mirrors TeraGen embedding the row
	// number) then deterministic printable filler.
	binary.BigEndian.PutUint64(dst[KeySize:KeySize+8], uint64(row))
	v := mix64(s + 3)
	for i := KeySize + 8; i < RecordSize; i++ {
		v = v*6364136223846793005 + 1442695040888963407
		dst[i] = 'A' + byte((v>>57)%26)
	}
}

func referenceGenerate(g *Generator, first, count int64) Records {
	buf := make([]byte, count*RecordSize)
	for i := int64(0); i < count; i++ {
		referenceRecord(g, buf[i*RecordSize:(i+1)*RecordSize], first+i)
	}
	return Records{buf: buf}
}

// allDistributions derives from SkewedDistributions, so a distribution
// added there joins the reference wall without an edit here.
var allDistributions = append([]Distribution{DistUniform, DistSkewed}, SkewedDistributions...)

// generateViaBlocks concatenates what GenerateBlocks hands its callback.
func generateViaBlocks(t testing.TB, g *Generator, first, count int64, blockRows int) Records {
	t.Helper()
	var out Records
	err := g.GenerateBlocks(first, count, blockRows, func(b Records) error {
		if b.Len() == 0 || b.Len() > blockRows {
			t.Fatalf("block of %d rows (blockRows %d)", b.Len(), blockRows)
		}
		out = out.AppendRecords(b)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestKernelMatchesReference holds every bulk producer to the per-byte
// reference over ranges that start and end off any lane or block boundary.
func TestKernelMatchesReference(t *testing.T) {
	const big = 100003
	counts := []int64{0, 1, 7, 8, 9, 4096, big}
	for di, dist := range allDistributions {
		for si, seed := range []uint64{0, 1, 0xdeadbeefcafef00d} {
			g := NewGenerator(seed, dist)
			for _, count := range counts {
				// The last start puts the final row at MaxInt64.
				firsts := []int64{0, 1 << 40, math.MaxInt64 - count, math.MaxInt64 - count + 1}
				switch {
				case count == 0:
					firsts = firsts[:3]
				case count == big && si != di%3:
					continue
				case count >= 4096:
					// -race pays microseconds per reference row, so the
					// long ranges rotate through the starts (and the
					// longest through the seeds) instead of crossing them.
					firsts = firsts[(di+si)%4:][:1]
				}
				for _, first := range firsts {
					name := fmt.Sprintf("%v seed=%#x first=%d count=%d", dist, seed, first, count)
					want := referenceGenerate(g, first, count)
					if got := g.Generate(first, count); !got.Equal(want) {
						t.Fatalf("%s: Generate differs from reference at byte %d", name, firstDiff(got, want))
					}
					for _, procs := range []int{1, 2, 8} {
						if got := g.GenerateParallel(first, count, procs); !got.Equal(want) {
							t.Fatalf("%s: GenerateParallel(procs=%d) differs at byte %d", name, procs, firstDiff(got, want))
						}
					}
					for _, blockRows := range []int{1, 7, 4096} {
						if count > 4096 && blockRows < 4096 {
							continue
						}
						if got := generateViaBlocks(t, g, first, count, blockRows); !got.Equal(want) {
							t.Fatalf("%s: GenerateBlocks(%d) differs at byte %d", name, blockRows, firstDiff(got, want))
						}
					}
				}
			}
		}
	}
}

func firstDiff(a, b Records) int {
	x, y := a.Bytes(), b.Bytes()
	for i := 0; i < len(x) && i < len(y); i++ {
		if x[i] != y[i] {
			return i
		}
	}
	return min(len(x), len(y))
}

// TestRecordAndKeyMatchReference checks the one-row forms: Record is the
// kernel at one row, Key its first KeySize bytes.
func TestRecordAndKeyMatchReference(t *testing.T) {
	var want, got [RecordSize]byte
	var key [KeySize]byte
	for _, dist := range allDistributions {
		for _, seed := range []uint64{0, 7, 0xdeadbeefcafef00d} {
			g := NewGenerator(seed, dist)
			for _, row := range []int64{0, 1, 511, 513, 1 << 40, math.MaxInt64 - 1, math.MaxInt64} {
				referenceRecord(g, want[:], row)
				g.Record(got[:], row)
				if got != want {
					t.Fatalf("%v seed=%#x row=%d: Record differs from reference", dist, seed, row)
				}
				g.Key(key[:], row)
				if !bytes.Equal(key[:], want[:KeySize]) {
					t.Fatalf("%v seed=%#x row=%d: Key %x, record key %x", dist, seed, row, key, want[:KeySize])
				}
			}
		}
	}
}

func TestRecordAndKeyRejectWrongLength(t *testing.T) {
	g := NewGenerator(1, DistUniform)
	for name, fn := range map[string]func(){
		"Record": func() { g.Record(make([]byte, RecordSize-1), 0) },
		"Key":    func() { g.Key(make([]byte, RecordSize), 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a wrong-length dst", name)
				}
			}()
			fn()
		}()
	}
}

// generatorPins are SHA-256 digests of rows [0, 4099) then
// [1<<40-5, 1<<40+998) at seed 0x5eedc0de, captured from the per-byte
// generator at commit 5e756d1 — identity against history, not only
// against the copy above. They must never be edited.
var generatorPins = map[Distribution]string{
	DistUniform:    "29e1a8d66a7a12932ce23dcf03a8093784bd0a17a8654f048cb4d040ff7776a9",
	DistSkewed:     "aafa7a3e9be2e15fdc452b4b55b0c08db653d9a682c39439e8f05a927efa701d",
	DistZipf:       "76e23fabb810a9e44bf7961bb9bc2ecaa0896fad9ba1692d5cc05980c01e5219",
	DistSorted:     "d375cdb9ee2021d478cee392351163f6df2d51100bb61b2ef89e9d7b7c86a35c",
	DistNearSorted: "d26961ab50ae9de54854822d65ebbcb5872199ba0687235f6dd2468c576b27de",
	DistDupHeavy:   "6f82f7992aa5b350810b4f2ec6fac9c06935931a456152a3141c2229c6e0024c",
	DistVarPrefix:  "54fefc27b8d9c0cb48a212eb494b0e82a95487b6f8a95db1f70abfa902de0540",
}

func TestGeneratorPinnedDigests(t *testing.T) {
	for _, dist := range allDistributions {
		g := NewGenerator(0x5eedc0de, dist)
		h := sha256.New()
		h.Write(g.Generate(0, 4099).Bytes())
		h.Write(g.Generate(1<<40-5, 1003).Bytes())
		if got := hex.EncodeToString(h.Sum(nil)); got != generatorPins[dist] {
			t.Errorf("%v: digest %s, pinned %s", dist, got, generatorPins[dist])
		}
	}
}

// FuzzGenerateBlocks: any blocking of any range yields Generate's bytes,
// and Generate yields the reference's.
func FuzzGenerateBlocks(f *testing.F) {
	f.Add(uint64(1), uint8(0), int64(0), uint16(100), uint16(7))
	f.Add(uint64(0xfeed), uint8(2), int64(1<<40), uint16(4097), uint16(4096))
	f.Add(uint64(3), uint8(4), int64(math.MaxInt64-9), uint16(9), uint16(1))
	f.Add(uint64(9), uint8(6), int64(-5), uint16(11), uint16(3))
	f.Fuzz(func(t *testing.T, seed uint64, dist uint8, first int64, count, blockRows uint16) {
		g := NewGenerator(seed, Distribution(int(dist)%len(allDistributions)))
		n := int64(count)
		if first > math.MaxInt64-n {
			first = math.MaxInt64 - n
		}
		want := g.Generate(first, n)
		if ref := referenceGenerate(g, first, n); !want.Equal(ref) {
			t.Fatalf("Generate differs from reference at byte %d", firstDiff(want, ref))
		}
		if got := generateViaBlocks(t, g, first, n, int(blockRows)+1); !got.Equal(want) {
			t.Fatalf("GenerateBlocks differs from Generate at byte %d", firstDiff(got, want))
		}
	})
}

func BenchmarkGenerate(b *testing.B) {
	const rows = 10000
	for _, dist := range []Distribution{DistUniform, DistZipf, DistDupHeavy} {
		b.Run(dist.String(), func(b *testing.B) {
			g := NewGenerator(1, dist)
			b.SetBytes(rows * RecordSize)
			for i := 0; i < b.N; i++ {
				_ = g.Generate(0, rows)
			}
		})
	}
}

// BenchmarkGenerateKey reports key-only generation in record bytes per
// second, so it reads against BenchmarkGenerate: the rate at which a
// sampler or a key histogram gets through the input.
func BenchmarkGenerateKey(b *testing.B) {
	const rows = 10000
	g := NewGenerator(1, DistUniform)
	var key [KeySize]byte
	b.SetBytes(rows * RecordSize)
	for i := 0; i < b.N; i++ {
		for row := int64(0); row < rows; row++ {
			g.Key(key[:], row)
		}
	}
}

// TestGenerateParallelMatchesGenerate: parallel generation is a pure
// sharding of the row-addressable generator.
func TestGenerateParallelMatchesGenerate(t *testing.T) {
	for _, count := range []int64{0, 1, 100, 5000} {
		for _, dist := range []Distribution{DistUniform, DistSkewed} {
			g := NewGenerator(99, dist)
			want := g.Generate(1234, count)
			for _, procs := range []int{1, 2, 4, 7} {
				got := g.GenerateParallel(1234, count, procs)
				if !got.Equal(want) {
					t.Fatalf("count=%d dist=%v procs=%d: parallel generation differs", count, dist, procs)
				}
			}
		}
	}
}

func BenchmarkGenerateParallel(b *testing.B) {
	const rows = 200000
	for _, procs := range []int{1, 4, runtime.NumCPU()} {
		b.Run(benchProcsName(procs), func(b *testing.B) {
			g := NewGenerator(1, DistUniform)
			b.SetBytes(rows * RecordSize)
			for i := 0; i < b.N; i++ {
				_ = g.GenerateParallel(0, rows, procs)
			}
		})
	}
}

func benchProcsName(procs int) string {
	return fmt.Sprintf("p=%d", procs)
}

package codec

import (
	"bytes"
	"fmt"
	"testing"

	"codedterasort/internal/kv"
)

// xorIntoBytewise is the reference scalar implementation the word-wise
// XORInto is checked (and benchmarked) against.
func xorIntoBytewise(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}

// TestXORIntoMatchesBytewise: the unrolled word XOR must agree with the
// byte loop at every length around the 8- and 32-byte stride boundaries.
func TestXORIntoMatchesBytewise(t *testing.T) {
	for n := 0; n <= 200; n++ {
		dst := make([]byte, n)
		src := make([]byte, n)
		want := make([]byte, n)
		for i := 0; i < n; i++ {
			dst[i] = byte(i*7 + 3)
			src[i] = byte(i*13 + 1)
			want[i] = dst[i]
		}
		xorIntoBytewise(want, src)
		XORInto(dst, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("n=%d: word XOR differs from byte reference", n)
		}
	}
}

func TestXORIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic on length mismatch")
		}
	}()
	XORInto(make([]byte, 8), make([]byte, 9))
}

// TestUnpackIVZeroCopyAliases: the zero-copy unpack must alias the payload
// (that is its contract) while UnpackIV must not.
func TestUnpackIVZeroCopyAliases(t *testing.T) {
	iv := kv.NewGenerator(1, kv.DistUniform).Generate(0, 10)
	payload := PackIV(iv)

	zero, err := UnpackIVZeroCopy(payload)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := UnpackIV(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !zero.Equal(iv) || !copied.Equal(iv) {
		t.Fatalf("unpack round trip failed")
	}
	payload[packHeader] ^= 0xFF
	if zero.Equal(iv) {
		t.Fatalf("zero-copy unpack did not alias the payload")
	}
	if !copied.Equal(iv) {
		t.Fatalf("copying unpack aliased the payload")
	}
}

// TestUnpackIVZeroCopyRejectsBadPayloads mirrors the UnpackIV validation.
func TestUnpackIVZeroCopyRejectsBadPayloads(t *testing.T) {
	if _, err := UnpackIVZeroCopy([]byte{1, 2}); err == nil {
		t.Fatalf("short payload accepted")
	}
	payload := PackIV(kv.NewGenerator(1, kv.DistUniform).Generate(0, 3))
	if _, err := UnpackIVZeroCopy(payload[:len(payload)-1]); err == nil {
		t.Fatalf("truncated payload accepted")
	}
}

// TestFrameSegmentChunkMatchesComposition: the fused pooled framing must be
// byte-identical to FrameChunk around the single-term packet of the segment.
func TestFrameSegmentChunkMatchesComposition(t *testing.T) {
	for _, rows := range []int64{0, 1, 57} {
		iv := kv.NewGenerator(9, kv.DistUniform).Generate(0, rows)
		for _, last := range []bool{false, true} {
			want := FrameChunk(7, last, encode([]kv.Records{iv}))
			got := FrameSegmentChunk(7, last, iv)
			if !bytes.Equal(got, want) {
				t.Fatalf("rows=%d last=%v: fused frame differs", rows, last)
			}
			Recycle(got)
			// A recycled buffer must come back fully rewritten.
			again := FrameSegmentChunk(7, last, iv)
			if !bytes.Equal(again, want) {
				t.Fatalf("rows=%d last=%v: pooled reuse corrupted the frame", rows, last)
			}
		}
	}
}

// BenchmarkXORInto proves the word-wise rewrite: the unrolled 8-byte-word
// loop against the scalar byte loop on a shuffle-sized frame.
func BenchmarkXORInto(b *testing.B) {
	for _, n := range []int{100, 4096, 1 << 16} {
		dst := make([]byte, n)
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(i)
		}
		b.Run(fmt.Sprintf("word/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				XORInto(dst, src)
			}
		})
		b.Run(fmt.Sprintf("byte/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				xorIntoBytewise(dst, src)
			}
		})
	}
}

// BenchmarkFrameSegmentChunk compares the fused pooled chunk framing against
// the two-buffer FrameChunk(packet) composition it replaces.
func BenchmarkFrameSegmentChunk(b *testing.B) {
	iv := kv.NewGenerator(2, kv.DistUniform).Generate(0, 2000)
	b.Run("fused", func(b *testing.B) {
		b.SetBytes(int64(iv.Size()))
		for i := 0; i < b.N; i++ {
			Recycle(FrameSegmentChunk(0, true, iv))
		}
	})
	b.Run("composed", func(b *testing.B) {
		b.SetBytes(int64(iv.Size()))
		for i := 0; i < b.N; i++ {
			Recycle(FrameChunk(0, true, encode([]kv.Records{iv})))
		}
	})
}

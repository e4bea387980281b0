// Package codec implements the serialization and coding layer of
// CodedTeraSort:
//
//   - Pack/Unpack: the Pack and Unpack stages of TeraSort (paper Section
//     V-A), which serialize an intermediate value into one contiguous
//     payload so a single TCP flow carries it.
//   - Segmentation: the even, record-aligned split of an intermediate value
//     I^t_F into r segments, one per node of F (paper Eq. 7).
//   - Frames: zero-padded, length-headed byte frames that make XOR of
//     unequal-length segments reversible ("all segments are zero-padded to
//     the length of the longest one", Section IV-C footnote).
//   - EncodeGroupPacket / DecodeGroupPacket: Algorithm 1 and Algorithm 2 —
//     the coded multicast packet construction and its cancellation
//     decoding, for any placement strategy's Group (CliqueGroup is the
//     paper's scheme).
package codec

import (
	"encoding/binary"
	"fmt"

	"codedterasort/internal/combin"
	"codedterasort/internal/kv"
)

// packHeader is the Pack frame header: a 4-byte record count. The byte
// length of the payload is count*kv.RecordSize, so Unpack can validate
// truncation and corruption.
const packHeader = 4

// PackIV serializes an intermediate value into a single contiguous payload
// (the Pack stage). The layout is [uint32 record count][records...].
func PackIV(iv kv.Records) []byte {
	out := make([]byte, packHeader+iv.Size())
	binary.BigEndian.PutUint32(out, uint32(iv.Len()))
	copy(out[packHeader:], iv.Bytes())
	return out
}

// UnpackIV deserializes a payload produced by PackIV (the Unpack stage).
// The records are copied out of the payload; callers that own the payload
// buffer use UnpackIVZeroCopy instead.
func UnpackIV(payload []byte) (kv.Records, error) {
	recs, err := UnpackIVZeroCopy(payload)
	if err != nil {
		return kv.Records{}, err
	}
	return recs.Clone(), nil
}

// UnpackIVZeroCopy deserializes a packed IV without copying: the returned
// records alias payload. It is the Unpack of the streaming receive paths,
// where the payload buffer arrived fresh from the transport and is owned
// by the caller; the alias must not outlive the caller's use of payload.
func UnpackIVZeroCopy(payload []byte) (kv.Records, error) {
	if len(payload) < packHeader {
		return kv.Records{}, fmt.Errorf("codec: packed IV of %d bytes lacks header", len(payload))
	}
	n := int(binary.BigEndian.Uint32(payload))
	if len(payload) != packHeader+n*kv.RecordSize {
		return kv.Records{}, fmt.Errorf("codec: packed IV declares %d records but carries %d bytes",
			n, len(payload)-packHeader)
	}
	return kv.NewRecords(payload[packHeader:])
}

// PackedSize returns the wire size of an IV with n records once packed.
func PackedSize(n int) int { return packHeader + n*kv.RecordSize }

// SplitSegments splits an intermediate value into r contiguous,
// record-aligned segments whose sizes differ by at most one record:
// segment j holds records [j*n/r, (j+1)*n/r). Every node of a file set F
// computes the identical split locally, which is what lets the XOR coding
// cancel (paper Eq. 7: "evenly and arbitrarily split into r segments" —
// the split must nonetheless be agreed upon, so it is deterministic here).
//
// Segment j belongs to the j-th member of F in ascending node order.
func SplitSegments(iv kv.Records, r int) []kv.Records {
	if r <= 0 {
		panic(fmt.Sprintf("codec: SplitSegments r=%d", r))
	}
	n := iv.Len()
	segs := make([]kv.Records, r)
	for j := 0; j < r; j++ {
		segs[j] = iv.Slice(j*n/r, (j+1)*n/r)
	}
	return segs
}

// Segment returns only the j-th of the r segments of iv, without
// materializing the others.
func Segment(iv kv.Records, r, j int) kv.Records {
	if r <= 0 || j < 0 || j >= r {
		panic(fmt.Sprintf("codec: Segment r=%d j=%d", r, j))
	}
	n := iv.Len()
	return iv.Slice(j*n/r, (j+1)*n/r)
}

// frameHeader is the per-segment length header inside a coded frame.
// XORing zero-padded segments is only reversible if the receiver can learn
// the true segment length after cancellation; the paper's implementation
// carries lengths in its serialization, and this 4-byte header plays that
// role here.
const frameHeader = 4

// FrameSize returns the frame width needed to carry a segment of segBytes.
func FrameSize(segBytes int) int { return frameHeader + segBytes }

// AppendFrame appends the frame encoding of seg ([uint32 len][seg bytes],
// zero-padded to width) to dst. It panics if width < FrameSize(len(seg)).
func AppendFrame(dst []byte, seg []byte, width int) []byte {
	if width < FrameSize(len(seg)) {
		panic(fmt.Sprintf("codec: frame width %d < %d", width, FrameSize(len(seg))))
	}
	start := len(dst)
	dst = append(dst, make([]byte, width)...)
	binary.BigEndian.PutUint32(dst[start:], uint32(len(seg)))
	copy(dst[start+frameHeader:], seg)
	return dst
}

// XORInto XORs src into dst element-wise. It panics if lengths differ:
// frames participating in one packet always share the packet width.
// The loop works in 8-byte words, unrolled four wide (32 bytes per
// iteration) so the Algorithm 1/2 encode and cancellation passes run at
// memory bandwidth rather than one byte per cycle.
func XORInto(dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("codec: XOR length mismatch %d vs %d", len(dst), len(src)))
	}
	n := len(dst)
	i := 0
	for ; i+32 <= n; i += 32 {
		d0 := binary.LittleEndian.Uint64(dst[i:])
		d1 := binary.LittleEndian.Uint64(dst[i+8:])
		d2 := binary.LittleEndian.Uint64(dst[i+16:])
		d3 := binary.LittleEndian.Uint64(dst[i+24:])
		s0 := binary.LittleEndian.Uint64(src[i:])
		s1 := binary.LittleEndian.Uint64(src[i+8:])
		s2 := binary.LittleEndian.Uint64(src[i+16:])
		s3 := binary.LittleEndian.Uint64(src[i+24:])
		binary.LittleEndian.PutUint64(dst[i:], d0^s0)
		binary.LittleEndian.PutUint64(dst[i+8:], d1^s1)
		binary.LittleEndian.PutUint64(dst[i+16:], d2^s2)
		binary.LittleEndian.PutUint64(dst[i+24:], d3^s3)
	}
	for ; i+8 <= n; i += 8 {
		d := binary.LittleEndian.Uint64(dst[i:])
		s := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^s)
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// xorFrameInto XORs the frame encoding of seg (width len(dst)) into dst
// without materializing the padded frame.
func xorFrameInto(dst []byte, seg []byte) {
	if len(dst) < FrameSize(len(seg)) {
		panic(fmt.Sprintf("codec: frame width %d < %d", len(dst), FrameSize(len(seg))))
	}
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(seg)))
	for i := 0; i < frameHeader; i++ {
		dst[i] ^= hdr[i]
	}
	XORInto(dst[frameHeader:frameHeader+len(seg)], seg)
}

// openFrame validates and strips the frame header, returning the segment.
func openFrame(frame []byte) ([]byte, error) {
	if len(frame) < frameHeader {
		return nil, fmt.Errorf("codec: frame of %d bytes lacks header", len(frame))
	}
	n := int(binary.BigEndian.Uint32(frame))
	if n > len(frame)-frameHeader {
		return nil, fmt.Errorf("codec: frame declares %d bytes but carries %d", n, len(frame)-frameHeader)
	}
	if n%kv.RecordSize != 0 {
		return nil, fmt.Errorf("codec: decoded segment of %d bytes is not record-aligned", n)
	}
	// Padding beyond the declared length must have cancelled to zero; a
	// non-zero byte means the XOR cancellation used wrong side information.
	for _, b := range frame[frameHeader+n:] {
		if b != 0 {
			return nil, fmt.Errorf("codec: non-zero padding after decode; side information mismatch")
		}
	}
	return frame[frameHeader : frameHeader+n], nil
}

// IVStore provides the locally known intermediate values of one node:
// IV(q, file) returns I^q_file, the records of file whose keys hash to
// partition q. Encode reads the IVs a node computed in its Map stage;
// Decode reads them as cancellation side information.
type IVStore interface {
	IV(part int, file combin.Set) kv.Records
}

// IVMap is a map-backed IVStore for tests and the in-memory engines.
type IVMap map[IVKey]kv.Records

// IVKey identifies one intermediate value I^Part_File.
type IVKey struct {
	Part int
	File combin.Set
}

// IV implements IVStore; absent entries are empty record sets.
func (m IVMap) IV(part int, file combin.Set) kv.Records {
	return m[IVKey{part, file}]
}

// Put stores an intermediate value.
func (m IVMap) Put(part int, file combin.Set, iv kv.Records) {
	m[IVKey{part, file}] = iv
}

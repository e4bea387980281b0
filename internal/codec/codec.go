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
//
// The coder reads intermediate values through an IVStore, as kv.Views:
// ViewMap holds the engine's references into the input files, IVMap holds
// contiguous buffers. Encode gathers each record of the first term into the
// packet and XORs the others onto it, record by record, from wherever the
// store's views point. The engine decodes in place: DecodeGroupPacketInPlace
// cancels the side information in the packet buffer it received and opens
// the frame where it lies, so a recovered segment is never copied.
// DecodeGroupPacket is the same decode on a copy, leaving the packet intact.
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

// Segment returns the j-th of r contiguous, record-aligned segments of an
// intermediate value, whose sizes differ by at most one record: segment j
// holds records [j*n/r, (j+1)*n/r). Every node of a file set F computes the
// identical split locally, which is what lets the XOR coding cancel (paper
// Eq. 7: "evenly and arbitrarily split into r segments" — the split must
// nonetheless be agreed upon, so it is deterministic here). Segment j
// belongs to the j-th member of F in ascending node order.
func Segment(iv kv.Records, r, j int) kv.Records {
	if r <= 0 || j < 0 || j >= r {
		panic(fmt.Sprintf("codec: Segment r=%d j=%d", r, j))
	}
	return iv.Slice(segmentSpan(iv.Len(), r, j))
}

// segmentSpan returns the record range [lo, hi) of segment j of r of an
// intermediate value of n records.
func segmentSpan(n, r, j int) (lo, hi int) { return j * n / r, (j + 1) * n / r }

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

// XORInto XORs src into dst element-wise. It panics if lengths differ.
// The loop works in 8-byte words, unrolled four wide (32 bytes per
// iteration). It is the contiguous-buffer kernel; the Algorithm 1/2 passes
// XOR record by record from wherever a view's rows lie (kv.View.XORInto).
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

// xorFrameInto XORs the frame encoding of the records seg views (width
// len(dst)) into dst without materializing the padded frame.
func xorFrameInto(dst []byte, seg kv.View) {
	if len(dst) < FrameSize(seg.Size()) {
		panic(fmt.Sprintf("codec: frame width %d < %d", len(dst), FrameSize(seg.Size())))
	}
	binary.BigEndian.PutUint32(dst, binary.BigEndian.Uint32(dst)^uint32(seg.Size()))
	seg.XORInto(dst[frameHeader:])
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
// View(q, file) returns I^q_file, the records of file whose keys hash to
// partition q, where the node holds them. Encode reads the IVs a node
// computed in its Map stage; Decode reads them as cancellation side
// information.
type IVStore interface {
	View(part int, file combin.Set) kv.View
}

// IVKey identifies one intermediate value I^Part_File.
type IVKey struct {
	Part int
	File combin.Set
}

// ViewMap is the IVStore of the in-memory Map: every intermediate value is
// a view of the rows of the file it came from.
type ViewMap map[IVKey]kv.View

// View implements IVStore; absent entries are empty.
func (m ViewMap) View(part int, file combin.Set) kv.View {
	return m[IVKey{part, file}]
}

// Put stores an intermediate value.
func (m ViewMap) Put(part int, file combin.Set, iv kv.View) {
	m[IVKey{part, file}] = iv
}

// IVMap is an IVStore of contiguous intermediate values: the out-of-core
// Map's, whose input blocks are transient, and coded.MapFiles'.
type IVMap map[IVKey]kv.Records

// IV returns I^part_file; absent entries are empty record sets.
func (m IVMap) IV(part int, file combin.Set) kv.Records {
	return m[IVKey{part, file}]
}

// View implements IVStore by viewing the whole buffer.
func (m IVMap) View(part int, file combin.Set) kv.View {
	return kv.ViewAll(m.IV(part, file))
}

// Put stores an intermediate value.
func (m IVMap) Put(part int, file combin.Set, iv kv.Records) {
	m[IVKey{part, file}] = iv
}

package codec

import (
	"encoding/binary"
	"sync"

	"codedterasort/internal/kv"
)

// Buffer pooling for the streaming shuffle hot path. Every chunk of every
// stream used to be built as a fresh make+copy (a packed IV, then a chunk
// frame around it, then a decode accumulator on the receive side), so a
// pipelined run churned the GC in proportion to Rows. The transport
// contract makes pooling safe: Send/Bcast do not alias the payload after
// they return, so a sender can Recycle a frame as soon as the call comes
// back, and the decode accumulator dies inside its function.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns a pooled buffer of length n with unspecified contents.
func getBuf(n int) []byte {
	p := bufPool.Get().(*[]byte)
	if cap(*p) < n {
		return make([]byte, n)
	}
	return (*p)[:n]
}

// Recycle returns a buffer obtained from FrameSegmentChunk, the
// EncodeGroupPacket family or FrameChunk to the pool. Callers recycle only
// once the buffer is dead (for sent frames: after Send/Bcast returns, per
// the transport non-aliasing contract); retaining instead of recycling is
// always safe, just slower.
func Recycle(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	b := buf[:0]
	bufPool.Put(&b)
}

// FrameSegmentChunk builds the chunk frame of a single-segment packet chunk
// in one pooled buffer: [chunk header][frame header][records]. It is the
// fused form of FrameChunk(seq, last, packet) for a packet whose only term
// is seg — what a two-member group streams — copying the records exactly
// once; the out-of-core shuffle sends its spooled blocks with it. Recycle
// the returned buffer after sending.
func FrameSegmentChunk(seq uint32, last bool, seg kv.Records) []byte {
	out := getBuf(chunkHeaderSize + FrameSize(seg.Size()))
	binary.BigEndian.PutUint32(out, seq)
	if last {
		out[4] = chunkFlagLast
	} else {
		out[4] = 0
	}
	binary.BigEndian.PutUint32(out[5:], uint32(FrameSize(seg.Size())))
	binary.BigEndian.PutUint32(out[chunkHeaderSize:], uint32(seg.Size()))
	copy(out[chunkHeaderSize+frameHeader:], seg.Bytes())
	return out
}

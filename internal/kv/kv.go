// Package kv implements the TeraSort data substrate: fixed-width key-value
// records in the Hadoop TeraGen format the paper sorts (a 10-byte unsigned
// integer key followed by a 90-byte arbitrary value, Section V-A), flat
// record buffers, views that refer to records where a buffer holds them,
// the sort kernel (Order: key references are ordered, each record is copied
// once), and the generator that replaces TeraGen.
//
// Records are stored back to back in a single []byte, so a file, a packed
// shuffle payload and a decoded coded-packet segment are the same
// representation. An in-memory intermediate value is a View: the rows of
// the file it came from. On its way from the input to the output a record
// is written twice: Encode gathers it into a packet (or XORs it onto one),
// and Reduce gathers it into the sorted output. Decode cancels in the
// received packet and leaves the recovered records where they lie.
package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

const (
	// KeySize is the width of a record key in bytes (paper: 10-byte key).
	KeySize = 10
	// ValueSize is the width of a record value in bytes (paper: 90-byte value).
	ValueSize = 90
	// RecordSize is the total width of one record.
	RecordSize = KeySize + ValueSize
)

// Records is a flat buffer of fixed-width records. The byte length is always
// a multiple of RecordSize. The zero value is an empty, ready-to-use buffer.
type Records struct {
	buf []byte
}

// NewRecords wraps buf as a record buffer. It returns an error if the
// length is not a multiple of RecordSize. The buffer is aliased, not copied.
func NewRecords(buf []byte) (Records, error) {
	if len(buf)%RecordSize != 0 {
		return Records{}, fmt.Errorf("kv: buffer length %d is not a multiple of %d", len(buf), RecordSize)
	}
	return Records{buf: buf}, nil
}

// MakeRecords allocates an empty buffer with capacity for n records.
func MakeRecords(n int) Records {
	return Records{buf: make([]byte, 0, n*RecordSize)}
}

// Len returns the number of records.
func (r Records) Len() int { return len(r.buf) / RecordSize }

// Bytes returns the underlying buffer. Callers must not change its length.
func (r Records) Bytes() []byte { return r.buf }

// Size returns the buffer length in bytes.
func (r Records) Size() int { return len(r.buf) }

// Record returns the i-th full record as a sub-slice (aliased, not copied).
func (r Records) Record(i int) []byte {
	return r.buf[i*RecordSize : (i+1)*RecordSize]
}

// Key returns the key of the i-th record as a sub-slice.
func (r Records) Key(i int) []byte {
	return r.buf[i*RecordSize : i*RecordSize+KeySize]
}

// Value returns the value of the i-th record as a sub-slice.
func (r Records) Value(i int) []byte {
	return r.buf[i*RecordSize+KeySize : (i+1)*RecordSize]
}

// Keys returns a fresh flat buffer of every record's key, concatenated in
// record order (Len() x KeySize bytes) — the form splitter selection reads.
func (r Records) Keys() []byte {
	out := make([]byte, 0, r.Len()*KeySize)
	for i := 0; i < r.Len(); i++ {
		out = append(out, r.Key(i)...)
	}
	return out
}

// Append appends a copy of the record rec (which must be RecordSize bytes)
// and returns the extended buffer.
func (r Records) Append(rec []byte) Records {
	if len(rec) != RecordSize {
		panic(fmt.Sprintf("kv: Append record of %d bytes", len(rec)))
	}
	return Records{buf: append(r.buf, rec...)}
}

// AppendRecords appends a copy of all records in other.
func (r Records) AppendRecords(other Records) Records {
	return Records{buf: append(r.buf, other.buf...)}
}

// Slice returns the record range [i, j) as an aliased sub-buffer.
func (r Records) Slice(i, j int) Records {
	return Records{buf: r.buf[i*RecordSize : j*RecordSize]}
}

// Clone returns a deep copy.
func (r Records) Clone() Records {
	return Records{buf: append([]byte(nil), r.buf...)}
}

// ForEachBlock invokes fn on successive aliased sub-buffers of at most
// blockRows records each — the iteration unit of the out-of-core paths,
// which never want the whole buffer live at once downstream. fn receives
// sub-slices of the receiver (no copies); the first error aborts.
func (r Records) ForEachBlock(blockRows int, fn func(Records) error) error {
	if blockRows <= 0 {
		return fmt.Errorf("kv: ForEachBlock blockRows=%d", blockRows)
	}
	for i := 0; i < r.Len(); i += blockRows {
		j := i + blockRows
		if j > r.Len() {
			j = r.Len()
		}
		if err := fn(r.Slice(i, j)); err != nil {
			return err
		}
	}
	return nil
}

// TransformRecords applies a per-record rewrite: fn is called once per
// record in order and may emit zero or more replacement records (each
// RecordSize bytes, copied on emit). It is the record-level Map hook of the
// MapReduce framework — a nil fn returns r unchanged (aliased).
func TransformRecords(r Records, fn func(rec []byte, emit func([]byte))) Records {
	if fn == nil {
		return r
	}
	out := MakeRecords(r.Len())
	emit := func(rec []byte) { out = out.Append(rec) }
	for i := 0; i < r.Len(); i++ {
		fn(r.Record(i), emit)
	}
	return out
}

// Less reports whether record i sorts strictly before record j in the
// output order (see Order): by key, equal keys by value.
func (r Records) Less(i, j int) bool {
	return bytes.Compare(r.Record(i), r.Record(j)) < 0
}

// Swap exchanges records i and j in place.
func (r Records) Swap(i, j int) {
	var tmp [RecordSize]byte
	a, b := r.Record(i), r.Record(j)
	copy(tmp[:], a)
	copy(a, b)
	copy(b, tmp[:])
}

var _ sort.Interface = Records{}

// Sort sorts the records in place in the output order with the stdlib
// comparison sort, as the paper's implementation does (std::sort). It is
// the oracle tests hold the engines to; the engines sort with Order.
func (r Records) Sort() { sort.Sort(r) }

// IsSorted reports whether the records are in the output order.
func (r Records) IsSorted() bool { return sort.IsSorted(r) }

// Equal reports whether two buffers hold identical bytes.
func (r Records) Equal(other Records) bool { return bytes.Equal(r.buf, other.buf) }

// MinKey returns a copy of the smallest key, or nil for an empty buffer.
// The receiver does not need to be sorted.
func (r Records) MinKey() []byte {
	if r.Len() == 0 {
		return nil
	}
	min := r.Key(0)
	for i := 1; i < r.Len(); i++ {
		if bytes.Compare(r.Key(i), min) < 0 {
			min = r.Key(i)
		}
	}
	return append([]byte(nil), min...)
}

// MaxKey returns a copy of the largest key, or nil for an empty buffer.
func (r Records) MaxKey() []byte {
	if r.Len() == 0 {
		return nil
	}
	max := r.Key(0)
	for i := 1; i < r.Len(); i++ {
		if bytes.Compare(r.Key(i), max) > 0 {
			max = r.Key(i)
		}
	}
	return append([]byte(nil), max...)
}

// Checksum returns an order-independent digest over the full records:
// the sum (mod 2^64) of a 64-bit digest of every record. Two buffers that
// hold the same multiset of records have the same checksum regardless of
// order, which is exactly the invariant a distributed sort must preserve.
func (r Records) Checksum() uint64 { return digest(r.buf) }

// ChecksumRecord returns one record's contribution to the order-independent
// Checksum digest, so streaming consumers can accumulate the multiset
// checksum record by record without materializing a buffer.
func ChecksumRecord(rec []byte) uint64 {
	if len(rec) != RecordSize {
		panic(fmt.Sprintf("kv: ChecksumRecord record of %d bytes", len(rec)))
	}
	return digest(rec)
}

// Round multipliers and lane seeds of digest: the xxHash64 primes and its
// seed-0 lane values. The multipliers are odd, so multiplying by one is a
// bijection of uint64.
const (
	digestPrime1 = 0x9e3779b185ebca87
	digestPrime2 = 0xc2b2ae3d27d4eb4f
	digestSeed0  = 0x60ea27eeadc0b5d6
	digestSeed1  = digestPrime2
	digestSeed2  = 0x165667b19e3779f9
	digestSeed3  = 0x61c8864e7a143579
)

// digestRound folds one 8-byte word into a lane (the xxHash64 round:
// multiply, add, rotate, multiply). It is a bijection of the word for a
// fixed lane and of the lane for a fixed word, and it does not commute, so a
// lane is sensitive to the order of its words.
func digestRound(lane, word uint64) uint64 {
	return bits.RotateLeft64(lane+word*digestPrime2, 31) * digestPrime1
}

// digest sums the per-record digests of the whole records in buf. One
// record is read as twelve little-endian 8-byte words plus a 4-byte tail —
// word loads, not a byte loop — and the words are dealt round-robin to four
// independently seeded lanes so the four multiply chains pipeline. The
// lanes are joined at distinct rotations, the tail is folded in, and the
// splitmix finaliser spreads the result before it enters the sum. Every
// step is a bijection of each single input word with the others held fixed,
// so any change confined to one word (a bit flip, a swap of two unequal
// bytes) always changes the record digest; changes spanning words, and
// dropped or duplicated records, change the sum with probability 1 - 2^-64.
func digest(buf []byte) uint64 {
	var sum uint64
	for ; len(buf) >= RecordSize; buf = buf[RecordSize:] {
		rec := buf[:RecordSize:RecordSize]
		a, b, c, d := uint64(digestSeed0), uint64(digestSeed1), uint64(digestSeed2), uint64(digestSeed3)
		a = digestRound(a, binary.LittleEndian.Uint64(rec[0:]))
		b = digestRound(b, binary.LittleEndian.Uint64(rec[8:]))
		c = digestRound(c, binary.LittleEndian.Uint64(rec[16:]))
		d = digestRound(d, binary.LittleEndian.Uint64(rec[24:]))
		a = digestRound(a, binary.LittleEndian.Uint64(rec[32:]))
		b = digestRound(b, binary.LittleEndian.Uint64(rec[40:]))
		c = digestRound(c, binary.LittleEndian.Uint64(rec[48:]))
		d = digestRound(d, binary.LittleEndian.Uint64(rec[56:]))
		a = digestRound(a, binary.LittleEndian.Uint64(rec[64:]))
		b = digestRound(b, binary.LittleEndian.Uint64(rec[72:]))
		c = digestRound(c, binary.LittleEndian.Uint64(rec[80:]))
		d = digestRound(d, binary.LittleEndian.Uint64(rec[88:]))
		h := bits.RotateLeft64(a, 1) + bits.RotateLeft64(b, 7) + bits.RotateLeft64(c, 12) + bits.RotateLeft64(d, 18)
		h = digestRound(h, uint64(binary.LittleEndian.Uint32(rec[96:])))
		sum += mix64(h)
	}
	return sum
}

func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

package kv

import (
	"encoding/binary"
	"slices"
)

// View is a set of records read where a buffer already holds them: the
// listed rows of the buffer, ascending, or the whole buffer. It is how an
// intermediate value refers to the input file it came from — Map lists the
// rows of each partition instead of copying them — and a record is copied
// only when a view is gathered into a packet or an output.
type View struct {
	recs   Records
	rows   []uint32
	listed bool
}

// ViewAll views every record of r, in order.
func ViewAll(r Records) View { return View{recs: r} }

// ViewRows views the records of r at the given rows, which must ascend.
// The rows are aliased, not copied.
func ViewRows(r Records, rows []uint32) View { return View{recs: r, rows: rows, listed: true} }

// Len returns the number of records viewed.
func (v View) Len() int {
	if v.listed {
		return len(v.rows)
	}
	return v.recs.Len()
}

// Size returns the byte length of the viewed records once gathered.
func (v View) Size() int { return v.Len() * RecordSize }

// row returns the buffer row of the i-th viewed record.
func (v View) row(i int) int {
	if v.listed {
		return int(v.rows[i])
	}
	return i
}

// Slice returns the view of records [i, j) of v.
func (v View) Slice(i, j int) View {
	if v.listed {
		return View{recs: v.recs, rows: v.rows[i:j], listed: true}
	}
	return View{recs: v.recs.Slice(i, j)}
}

// Gather copies the viewed records, back to back, to the front of dst,
// which must hold Size() bytes.
func (v View) Gather(dst []byte) {
	if !v.listed {
		copy(dst, v.recs.buf)
		return
	}
	src := v.recs.buf
	dst = dst[:len(v.rows)*RecordSize]
	for i, row := range v.rows {
		copy(dst[i*RecordSize:(i+1)*RecordSize], src[int(row)*RecordSize:])
	}
}

// AppendView appends a copy of the records v views, gathered back to back,
// and returns the extended buffer.
func (r Records) AppendView(v View) Records {
	n := len(r.buf)
	r.buf = slices.Grow(r.buf, v.Size())[:n+v.Size()]
	v.Gather(r.buf[n:])
	return r
}

// Collect returns the viewed records as one contiguous buffer: the whole
// buffer aliased, listed rows gathered into a fresh one.
func (v View) Collect() Records {
	if !v.listed {
		return v.recs
	}
	out := Records{buf: make([]byte, v.Size())}
	v.Gather(out.buf)
	return out
}

// XORInto XORs the viewed records, back to back, onto the front of dst,
// which must hold Size() bytes — the gather-XOR of the coded encode and
// decode. Each record is twelve 8-byte words and a 4-byte tail.
func (v View) XORInto(dst []byte) {
	src := v.recs.buf
	n := v.Len()
	dst = dst[:n*RecordSize]
	for i := 0; i < n; i++ {
		xorRecord((*[RecordSize]byte)(dst[i*RecordSize:]), (*[RecordSize]byte)(src[v.row(i)*RecordSize:]))
	}
}

// xorRecord XORs the record s onto d.
func xorRecord(d, s *[RecordSize]byte) {
	le := binary.LittleEndian
	le.PutUint64(d[0:], le.Uint64(d[0:])^le.Uint64(s[0:]))
	le.PutUint64(d[8:], le.Uint64(d[8:])^le.Uint64(s[8:]))
	le.PutUint64(d[16:], le.Uint64(d[16:])^le.Uint64(s[16:]))
	le.PutUint64(d[24:], le.Uint64(d[24:])^le.Uint64(s[24:]))
	le.PutUint64(d[32:], le.Uint64(d[32:])^le.Uint64(s[32:]))
	le.PutUint64(d[40:], le.Uint64(d[40:])^le.Uint64(s[40:]))
	le.PutUint64(d[48:], le.Uint64(d[48:])^le.Uint64(s[48:]))
	le.PutUint64(d[56:], le.Uint64(d[56:])^le.Uint64(s[56:]))
	le.PutUint64(d[64:], le.Uint64(d[64:])^le.Uint64(s[64:]))
	le.PutUint64(d[72:], le.Uint64(d[72:])^le.Uint64(s[72:]))
	le.PutUint64(d[80:], le.Uint64(d[80:])^le.Uint64(s[80:]))
	le.PutUint64(d[88:], le.Uint64(d[88:])^le.Uint64(s[88:]))
	le.PutUint32(d[96:], le.Uint32(d[96:])^le.Uint32(s[96:]))
}

// Package extsort implements the out-of-core external sorting subsystem:
// sorted-run generation under a byte budget, a framed on-disk block format
// for spill files, and a k-way loser-tree merge that streams the merged
// order without rematerializing it. It is what lets the sort engine handle the
// one scenario a production TeraSort exists for — datasets that dwarf the
// memory of any single node — while the coded shuffle above it stays
// unchanged (the run-generation + merge structure follows the external
// merge sort literature; the merge compares offset-value codes after Do &
// Graefe, derived from the keys as it reads them, so most loser-tree
// matches never touch full keys; the engine plugs it in behind the
// MemBudget knob).
//
// Spill files (runs and spools alike) are a sequence of framed blocks of
// raw records, one format ("CTS3"):
//
//	[uint32 magic][uint32 count][count*RecordSize bytes][uint64 crc32c]
//
// The magic guards against reading a non-spill file; the explicit count
// rejects torn frames; the trailing CRC-32C (Castagnoli, zero-extended to
// the 8-byte trailer) over the payload rejects bit rot and short writes. A
// reader therefore returns an error — never a panic, never silently short
// data — on any truncation or corruption; a checksum-preserving tamper that
// reorders keys is caught one layer up by the merge's sortedness guard.
//
// Retired magics name earlier layouts: "CTS1" (FNV-64a trailer), "CTS2"
// (its prefix-truncated twin) and "CTS4" (prefix-truncated keys under
// CRC-32C). There is one writer and one reader: a frame with a retired
// magic is rejected as a format-version error, never read as bit rot.
//
// Nothing here describes an input or digests an output: the runtime that
// verifies a job does both (internal/cluster, internal/verify).
package extsort

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"codedterasort/internal/kv"
)

const (
	// blockMagic opens every spill-file block frame ("CTS3").
	blockMagic = 0x43545333
	// retiredMagic, retiredMagicV2 and retiredMagicCompact opened the
	// retired frame layouts ("CTS1", "CTS2", "CTS4"); the reader names them
	// in its error.
	retiredMagic        = 0x43545331
	retiredMagicV2      = 0x43545332
	retiredMagicCompact = 0x43545334
	// blockHeader is the frame prefix: magic + record count.
	blockHeader = 8
	// blockTrailer is the frame suffix: the payload checksum.
	blockTrailer = 8
	// MaxBlockRows caps the records of one block frame. Writers never
	// exceed it, so a larger declared count is corruption — the bound is
	// what keeps a torn count field from inducing a multi-gigabyte
	// allocation in the reader.
	MaxBlockRows = 1 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// blockSum digests a block payload with CRC-32C, which amd64 and arm64
// compute in hardware. It is order-dependent, unlike the kv multiset
// checksum: a spill block is an ordered byte range, and two swapped records
// inside it are corruption.
func blockSum(payload []byte) uint64 {
	return uint64(crc32.Checksum(payload, castagnoli))
}

// WriteBlock appends one framed block holding recs to w.
func WriteBlock(w io.Writer, recs kv.Records) error {
	if recs.Len() > MaxBlockRows {
		return fmt.Errorf("extsort: block of %d records exceeds max %d", recs.Len(), MaxBlockRows)
	}
	var hdr [blockHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], blockMagic)
	binary.BigEndian.PutUint32(hdr[4:8], uint32(recs.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("extsort: write block header: %w", err)
	}
	if _, err := w.Write(recs.Bytes()); err != nil {
		return fmt.Errorf("extsort: write block payload: %w", err)
	}
	var tr [blockTrailer]byte
	binary.BigEndian.PutUint64(tr[:], blockSum(recs.Bytes()))
	if _, err := w.Write(tr[:]); err != nil {
		return fmt.Errorf("extsort: write block checksum: %w", err)
	}
	return nil
}

// RunReader reads a spill file block by block, validating every frame.
// Next returns io.EOF exactly at a clean end-of-file on a frame boundary;
// anything else — a torn header, a bad or retired magic, an impossible
// count, a truncated payload or checksum, a checksum mismatch — is an
// error.
type RunReader struct {
	r   *bufio.Reader
	buf []byte // reused frame-payload buffer
}

// NewRunReader wraps r for block-by-block reading.
func NewRunReader(r io.Reader) *RunReader {
	return &RunReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Next returns the next block's records. The returned buffer is reused by
// the following Next call; callers that retain records must copy them.
func (r *RunReader) Next() (kv.Records, error) {
	var hdr [blockHeader]byte
	if _, err := io.ReadFull(r.r, hdr[:1]); err == io.EOF {
		return kv.Records{}, io.EOF // clean end on a frame boundary
	} else if err != nil {
		return kv.Records{}, fmt.Errorf("extsort: read block header: %w", err)
	}
	if _, err := io.ReadFull(r.r, hdr[1:]); err != nil {
		return kv.Records{}, fmt.Errorf("extsort: torn block header: %w", noEOF(err))
	}
	n := int(binary.BigEndian.Uint32(hdr[4:8]))
	switch m := binary.BigEndian.Uint32(hdr[0:4]); m {
	case blockMagic:
	case retiredMagic, retiredMagicV2, retiredMagicCompact:
		return kv.Records{}, fmt.Errorf("extsort: block magic %#x is a retired frame version (CTS1/CTS2/CTS4); this build reads CTS3 (raw records, CRC-32C) only", m)
	default:
		return kv.Records{}, fmt.Errorf("extsort: bad block magic %#x", m)
	}
	if n > MaxBlockRows {
		return kv.Records{}, fmt.Errorf("extsort: block declares %d records, max is %d", n, MaxBlockRows)
	}
	need := n*kv.RecordSize + blockTrailer
	if cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	r.buf = r.buf[:need]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return kv.Records{}, fmt.Errorf("extsort: torn block frame (%d records declared): %w", n, noEOF(err))
	}
	payload, tr := r.buf[:n*kv.RecordSize], r.buf[n*kv.RecordSize:]
	if got, want := blockSum(payload), binary.BigEndian.Uint64(tr); got != want {
		return kv.Records{}, fmt.Errorf("extsort: block checksum %#x != stored %#x", got, want)
	}
	recs, err := kv.NewRecords(payload)
	if err != nil {
		return kv.Records{}, err
	}
	return recs, nil
}

// noEOF turns a bare io.EOF into ErrUnexpectedEOF so truncation inside a
// frame is never mistaken for a clean end by errors.Is(err, io.EOF) callers.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// BlockWriter buffers appended records and flushes them as framed blocks of
// exactly blockRows records (the final, possibly short, block flushes on
// Finish). Runs and spools share it, so every spill file on disk has one
// format and one reader.
type BlockWriter struct {
	w         *bufio.Writer
	blockRows int
	buf       kv.Records
	rows      int64
	blocks    int64
	diskBytes int64
}

// NewBlockWriter returns a writer framing blocks of blockRows records.
func NewBlockWriter(w io.Writer, blockRows int) *BlockWriter {
	if blockRows <= 0 || blockRows > MaxBlockRows {
		panic(fmt.Sprintf("extsort: NewBlockWriter blockRows=%d", blockRows))
	}
	return &BlockWriter{
		w:         bufio.NewWriterSize(w, 1<<16),
		blockRows: blockRows,
		buf:       kv.MakeRecords(blockRows),
	}
}

// Reset points the writer at w and zeroes its counters, keeping its
// buffers: a Sorter frames every run through one writer.
func (b *BlockWriter) Reset(w io.Writer) {
	b.w.Reset(w)
	b.buf = b.buf.Slice(0, 0)
	b.rows, b.blocks, b.diskBytes = 0, 0, 0
}

// AppendSorted appends every record of o in sorted order, gathering each
// block straight into the frame buffer.
func (b *BlockWriter) AppendSorted(o *kv.Order) error {
	for from := 0; from < o.Len(); {
		to := min(from+b.blockRows-b.buf.Len(), o.Len())
		b.buf = o.Gather(b.buf, from, to)
		from = to
		if b.buf.Len() == b.blockRows {
			if err := b.flush(); err != nil {
				return err
			}
		}
	}
	b.rows += int64(o.Len())
	return nil
}

// Append buffers recs, flushing every completed block.
func (b *BlockWriter) Append(recs kv.Records) error { return b.AppendView(kv.ViewAll(recs)) }

// AppendView buffers the records v views, gathering each straight into the
// frame buffer and flushing every completed block.
func (b *BlockWriter) AppendView(v kv.View) error {
	for i := 0; i < v.Len(); {
		take := min(b.blockRows-b.buf.Len(), v.Len()-i)
		b.buf = b.buf.AppendView(v.Slice(i, i+take))
		i += take
		if b.buf.Len() == b.blockRows {
			if err := b.flush(); err != nil {
				return err
			}
		}
	}
	b.rows += int64(v.Len())
	return nil
}

func (b *BlockWriter) flush() error {
	if err := WriteBlock(b.w, b.buf); err != nil {
		return err
	}
	b.diskBytes += int64(blockHeader + b.buf.Size() + blockTrailer)
	b.blocks++
	b.buf = b.buf.Slice(0, 0)
	return nil
}

// Finish flushes the final partial block and the underlying buffer. The
// writer must not be appended to afterwards.
func (b *BlockWriter) Finish() error {
	if b.buf.Len() > 0 {
		if err := b.flush(); err != nil {
			return err
		}
	}
	return b.w.Flush()
}

// Rows returns the records appended so far.
func (b *BlockWriter) Rows() int64 { return b.rows }

// Blocks returns the framed blocks written so far (Finish may add one).
func (b *BlockWriter) Blocks() int64 { return b.blocks }

// RawBytes returns the record payload appended so far — what the file
// would hold unframed.
func (b *BlockWriter) RawBytes() int64 { return b.rows * kv.RecordSize }

// DiskBytes returns the framed bytes flushed to the underlying writer so
// far (call after Finish for the file total): the records plus 16 bytes of
// framing per block.
func (b *BlockWriter) DiskBytes() int64 { return b.diskBytes }

// Spool is an unsorted on-disk record log: the Map stage of a
// budget-bounded worker appends each partition's records as it scans input
// blocks, and the shuffle later streams the spool back block by block. The
// in-memory footprint is one partial block.
type Spool struct {
	f    *os.File
	w    *BlockWriter
	path string
}

// NewSpool creates a spool file inside dir, framed in blocks of blockRows
// records.
func NewSpool(dir string, blockRows int) (*Spool, error) {
	f, err := os.CreateTemp(dir, "spool-*.spill")
	if err != nil {
		return nil, fmt.Errorf("extsort: create spool: %w", err)
	}
	return &Spool{f: f, w: NewBlockWriter(f, blockRows), path: f.Name()}, nil
}

// AppendView buffers the records v views into the spool.
func (s *Spool) AppendView(v kv.View) error { return s.w.AppendView(v) }

// Rows returns the records appended so far.
func (s *Spool) Rows() int64 { return s.w.Rows() }

// RawBytes returns the unframed record bytes appended so far.
func (s *Spool) RawBytes() int64 { return s.w.RawBytes() }

// DiskBytes returns the framed bytes written so far (total after Finish).
func (s *Spool) DiskBytes() int64 { return s.w.DiskBytes() }

// Finish flushes the spool and returns its block count. Call once, before
// Reader.
func (s *Spool) Finish() (blocks int64, err error) {
	if err := s.w.Finish(); err != nil {
		return 0, err
	}
	return s.w.Blocks(), nil
}

// Reader returns a block reader over the finished spool from the start.
func (s *Spool) Reader() (*RunReader, error) {
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("extsort: rewind spool: %w", err)
	}
	return NewRunReader(s.f), nil
}

// Close closes and removes the spool file.
func (s *Spool) Close() error {
	err := s.f.Close()
	if rmErr := os.Remove(s.path); err == nil {
		err = rmErr
	}
	return err
}

// PartFile returns the path of part file i of the on-disk input layout
// teragen -disk writes and the engine's InputDir path reads —
// the single definition of the layout contract between writer and readers.
func PartFile(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("part-%05d", i))
}

// SampleFile reads every stride-th record of a raw record file (the
// teragen on-disk format) by position, returning the sampled records in
// file order — the cheap positional scan behind sampled partitioning. A
// file length that is not a whole number of records is an error.
func SampleFile(path string, stride int64) (kv.Records, error) {
	if stride <= 0 {
		return kv.Records{}, fmt.Errorf("extsort: SampleFile stride=%d", stride)
	}
	f, err := os.Open(path)
	if err != nil {
		return kv.Records{}, fmt.Errorf("extsort: open input: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return kv.Records{}, fmt.Errorf("extsort: stat input: %w", err)
	}
	if st.Size()%int64(kv.RecordSize) != 0 {
		return kv.Records{}, fmt.Errorf("extsort: input %s ends mid-record (%d trailing bytes)", path, st.Size()%int64(kv.RecordSize))
	}
	rows := st.Size() / int64(kv.RecordSize)
	sampled := kv.MakeRecords(0)
	buf := make([]byte, kv.RecordSize)
	for p := int64(0); p < rows; p += stride {
		if _, err := f.ReadAt(buf, p*int64(kv.RecordSize)); err != nil {
			return kv.Records{}, fmt.Errorf("extsort: sample input %s: %w", path, err)
		}
		sampled = sampled.Append(buf)
	}
	return sampled, nil
}

// ScanFile reads a raw record file (the teragen on-disk format: bare
// back-to-back records, no framing) block by block, calling fn with at most
// blockRows records at a time. The buffer passed to fn is reused; fn must
// not retain it. A file length that is not a multiple of the record size is
// an error.
func ScanFile(path string, blockRows int, fn func(kv.Records) error) error {
	if blockRows <= 0 {
		return fmt.Errorf("extsort: ScanFile blockRows=%d", blockRows)
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("extsort: open input: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	buf := make([]byte, blockRows*kv.RecordSize)
	for {
		n, err := io.ReadFull(r, buf)
		if err == io.EOF {
			return nil
		}
		if err != nil && err != io.ErrUnexpectedEOF {
			return fmt.Errorf("extsort: read input %s: %w", path, err)
		}
		if n%kv.RecordSize != 0 {
			return fmt.Errorf("extsort: input %s ends mid-record (%d trailing bytes)", path, n%kv.RecordSize)
		}
		recs, rerr := kv.NewRecords(buf[:n])
		if rerr != nil {
			return rerr
		}
		if ferr := fn(recs); ferr != nil {
			return ferr
		}
		if err == io.ErrUnexpectedEOF {
			return nil
		}
	}
}

package extsort

import (
	"fmt"
	"os"
	"path/filepath"

	"codedterasort/internal/kv"
)

// Sorter accumulates records under a byte budget and spills sorted runs to
// disk whenever the in-memory buffer would exceed it: the buffer is ordered
// by reference (kv.Order) and gathered block by block straight into the
// run's frame buffer, so a run costs one copy per record and no
// record-sized scratch. Merge sorts whatever remains in memory as the final
// run and returns a streaming loser-tree merge over all runs, so the fully
// sorted order is produced without ever materializing it.
//
// A Sorter is not safe for concurrent use; callers that append from
// several goroutines (the shuffle receive path) serialize with their own
// mutex.
type Sorter struct {
	dir       string // owned spill directory, removed by Close
	budget    int64  // spill threshold for the in-memory buffer, in bytes
	blockRows int
	procs     int // goroutines for run sorting; <=1 sequential
	buf       kv.Records
	order     kv.Order     // reference arrays, reused across runs
	w         *BlockWriter // run writer, made by the first spill and reused
	runs      []string
	merging   bool
	// Spill accounting: record bytes handed to run writers vs framed bytes
	// on disk.
	spilledRaw  int64
	spilledDisk int64
}

// defaultBlockRows picks the spill-block granularity for a budget: blocks
// small enough that the merge holds all run cursors well under the budget,
// large enough that frame overhead stays negligible (a block is at least
// 16 records = 1.6 KB against 16 bytes of framing).
func defaultBlockRows(budget int64) int {
	rows := budget / (16 * kv.RecordSize)
	if rows < 16 {
		rows = 16
	}
	if rows > 8192 {
		rows = 8192
	}
	return int(rows)
}

// BudgetChunkRows picks a streaming shuffle chunk size for a byte budget:
// small enough that a full window of in-flight chunks on each of ~streams
// concurrent peer streams remains a minor fraction of the budget, large
// enough that per-chunk framing and credit round trips amortize. window <=
// 0 selects the engines' default window of 4.
func BudgetChunkRows(budget int64, streams, window int) int {
	if window <= 0 {
		window = 4
	}
	if streams < 1 {
		streams = 1
	}
	rows := budget / int64(kv.RecordSize) / int64(4*streams*window)
	if rows < 16 {
		rows = 16
	}
	if rows > 8192 {
		rows = 8192
	}
	return int(rows)
}

// NewSorter creates a sorter spilling under parent (”” = the system temp
// directory) once buffered records exceed budget bytes. The sorter owns a
// fresh subdirectory; Close removes it and everything inside.
func NewSorter(parent string, budget int64) (*Sorter, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("extsort: non-positive budget %d", budget)
	}
	dir, err := os.MkdirTemp(parent, "extsort-*")
	if err != nil {
		return nil, fmt.Errorf("extsort: create spill dir: %w", err)
	}
	return &Sorter{dir: dir, budget: budget, blockRows: defaultBlockRows(budget)}, nil
}

// SetParallelism sets the goroutine budget for ordering spill runs (and the
// final in-memory tail). The order is unique — full key, then append
// position — so runs, and therefore the merged order, do not depend on the
// setting.
func (s *Sorter) SetParallelism(procs int) { s.procs = procs }

// Dir returns the sorter's spill directory, for callers (the engines) that
// colocate their shuffle spools with the runs.
func (s *Sorter) Dir() string { return s.dir }

// BlockRows returns the spill-block granularity.
func (s *Sorter) BlockRows() int { return s.blockRows }

// Runs returns the number of on-disk runs spilled so far.
func (s *Sorter) Runs() int { return len(s.runs) }

// Rows returns the number of records appended so far, spilled or buffered.
func (s *Sorter) Rows() int64 { return s.spilledRaw/kv.RecordSize + int64(s.buf.Len()) }

// SpilledRawBytes returns the record bytes written to spill runs so far,
// before framing.
func (s *Sorter) SpilledRawBytes() int64 { return s.spilledRaw }

// SpilledDiskBytes returns the framed bytes the spill runs occupy on disk.
func (s *Sorter) SpilledDiskBytes() int64 { return s.spilledDisk }

// Append copies recs into the buffer, spilling a sorted run first if the
// addition would push the buffer past the budget.
func (s *Sorter) Append(recs kv.Records) error { return s.AppendView(kv.ViewAll(recs)) }

// AppendView is Append of the records v views, each gathered straight into
// the buffer.
func (s *Sorter) AppendView(v kv.View) error {
	if s.merging {
		return fmt.Errorf("extsort: Append after Merge")
	}
	if s.buf.Size() > 0 && int64(s.buf.Size()+v.Size()) > s.budget {
		if err := s.spill(); err != nil {
			return err
		}
	}
	s.buf = s.buf.AppendView(v)
	if int64(s.buf.Size()) >= s.budget {
		return s.spill()
	}
	return nil
}

// spill sorts the buffer and writes it as one run file, keeping the
// buffer's capacity for reuse.
func (s *Sorter) spill() error {
	if s.buf.Len() == 0 {
		return nil
	}
	s.order.Sort(s.procs, s.buf)
	path := filepath.Join(s.dir, fmt.Sprintf("run-%05d.spill", len(s.runs)))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("extsort: create run: %w", err)
	}
	if s.w == nil {
		s.w = NewBlockWriter(nil, s.blockRows)
	}
	w := s.w
	w.Reset(f)
	err = w.AppendSorted(&s.order)
	if err == nil {
		err = w.Finish()
	}
	if err != nil {
		f.Close()
		return err
	}
	if cerr := f.Close(); cerr != nil {
		return fmt.Errorf("extsort: close run: %w", cerr)
	}
	s.spilledRaw += w.RawBytes()
	s.spilledDisk += w.DiskBytes()
	s.runs = append(s.runs, path)
	s.buf = s.buf.Slice(0, 0) // reset length, keep capacity
	return nil
}

// Merge finalizes the sorter: the in-memory remainder is sorted as the
// final run and a streaming Merger over all runs is returned. The sorter
// accepts no further appends; Close it (after closing the merger) to
// release the spill files.
func (s *Sorter) Merge() (*Merger, error) {
	if s.merging {
		return nil, fmt.Errorf("extsort: Merge called twice")
	}
	s.merging = true
	s.order.Sort(s.procs, s.buf)
	s.order.Permute()
	s.order, s.w = kv.Order{}, nil // run generation is over; the merge gets the memory
	return newMerger(s.runs, s.buf)
}

// Close removes the spill directory and all run files.
func (s *Sorter) Close() error {
	return os.RemoveAll(s.dir)
}

// Output is the residue of draining a sorter's merged order.
type Output struct {
	// Rows counts the drained records.
	Rows int64
	// Checksum is the kv multiset digest of the drained records, taken by
	// DrainSorted only: Drain leaves the digest to the caller's verifier.
	Checksum uint64
	// Records holds the materialized order when the drain ran without a
	// sink; empty otherwise.
	Records kv.Records
	// SpilledRuns counts the on-disk runs the merge consumed.
	SpilledRuns int64
	// SpilledRawBytes and SpilledDiskBytes account the runs' record bytes
	// before framing vs their framed on-disk size.
	SpilledRawBytes  int64
	SpilledDiskBytes int64
	// OVCDecided and FullCompares are the merge's loser-tree match
	// counters: matches resolved by cached offset-value codes alone vs
	// matches that fell through to key bytes.
	OVCDecided   int64
	FullCompares int64
}

// Drain finalizes the sorter and streams its fully merged order in
// ascending blocks of at most blockRows records: to sink when non-nil (the
// block is reused; the sink must not retain it), otherwise materialized
// into Output.Records. It is the Reduce tail of the engine's out-of-core
// path, whose output is digested by the verifier it streams through. The
// caller still closes the sorter.
func (s *Sorter) Drain(blockRows int, sink func(kv.Records) error) (Output, error) {
	rows := s.Rows()
	merger, err := s.Merge()
	if err != nil {
		return Output{}, err
	}
	defer merger.Close()
	out := Output{
		SpilledRuns:      int64(s.Runs()),
		SpilledRawBytes:  s.SpilledRawBytes(),
		SpilledDiskBytes: s.SpilledDiskBytes(),
	}
	if sink == nil {
		out.Records = kv.MakeRecords(int(rows))
	}
	if err := merger.Drain(blockRows, func(block kv.Records) error {
		out.Rows += int64(block.Len())
		if sink != nil {
			return sink(block)
		}
		out.Records = out.Records.AppendRecords(block)
		return nil
	}); err != nil {
		return Output{}, err
	}
	out.OVCDecided, out.FullCompares = merger.CompareStats()
	return out, nil
}

// DrainSorted is s.Drain plus the multiset digest of the drained records in
// Output.Checksum, for callers that check a drain without a verifier of
// their own.
func DrainSorted(s *Sorter, blockRows int, sink func(kv.Records) error) (Output, error) {
	if sink == nil {
		out, err := s.Drain(blockRows, nil)
		out.Checksum = out.Records.Checksum()
		return out, err
	}
	var sum uint64
	out, err := s.Drain(blockRows, func(block kv.Records) error {
		sum += block.Checksum()
		return sink(block)
	})
	out.Checksum = sum
	return out, err
}

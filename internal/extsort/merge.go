package extsort

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"codedterasort/internal/kv"
)

// An offset-value code (Do & Graefe) caches a key's relationship to a
// reference key R with key >= R: with off the first byte index where the
// key differs from R (KeySize when equal) and val the key's byte there,
//
//	ovc = (KeySize-off)<<8 | val
//
// Between two keys coded against the same reference, the smaller code is
// the smaller key; equal codes mean the keys agree with each other through
// the coded offset and only the remaining suffix must be compared. The
// loser tree keeps every stored loser coded against the key that defeated
// it, which is exactly the reference the next candidate ascending that
// path carries, so most matches are decided by one uint16 compare.
// Crucially, when codes differ the loser's code is already correct
// relative to the winner (same offset, same byte), so only the full-compare
// tie path ever recomputes a code.

// mergeSource is one sorted input of the merge: an on-disk run consumed
// block by block, or the sorter's in-memory tail. key is nil once the
// source is exhausted.
type mergeSource struct {
	rd    *RunReader // nil for the in-memory tail
	f     *os.File   // backing file of rd, closed by Merger.Close
	block kv.Records
	idx   int
	key   []byte
	ovc   uint16           // offset-value code vs the key that last defeated this source
	prev  [kv.KeySize]byte // last key served, for the sortedness guard
	begun bool
}

// load points the source at record idx of its current block, refilling the
// block from the reader when exhausted. The prefix scan against the last
// served key doubles as the sortedness guard (runs are written sorted; a
// regressing reconstructed key means checksum-preserving corruption or a
// writer bug, and the merge output would silently be unsorted) and as the
// offset-value coding of the new key: the last served key of the pending
// source is the key the merge just emitted, the reference every loser on
// this source's tree path is coded against. Before the first record prev
// is the zero key — a floor for unsigned keys — giving all sources a
// common reference for the initial tournament.
func (s *mergeSource) load() error {
	for s.idx >= s.block.Len() {
		if s.rd == nil {
			s.key = nil
			return nil
		}
		block, err := s.rd.Next()
		if err == io.EOF {
			s.key = nil
			return nil
		}
		if err != nil {
			return err
		}
		s.block, s.idx = block, 0
	}
	s.key = s.block.Key(s.idx)
	off := 0
	for off < kv.KeySize && s.key[off] == s.prev[off] {
		off++
	}
	if off == kv.KeySize {
		s.ovc = 0
		return nil
	}
	if s.begun && s.key[off] < s.prev[off] {
		return fmt.Errorf("extsort: run not sorted: key regresses within run")
	}
	s.ovc = uint16(kv.KeySize-off)<<8 | uint16(s.key[off])
	return nil
}

// advance consumes the current record.
func (s *mergeSource) advance() error {
	copy(s.prev[:], s.key)
	s.begun = true
	s.idx++
	return s.load()
}

// Merger streams the ascending merged order of any number of sorted runs
// plus one in-memory tail, using a tournament tree of losers: each Next is
// one leaf-to-root replay, log2(k) comparisons, independent of run sizes —
// and with offset-value coding most of those comparisons resolve on the
// cached codes without touching key bytes. Memory is one block per on-disk
// run.
type Merger struct {
	srcs []*mergeSource
	tree []int // tree[0] is the winner; tree[1..n-1] hold match losers
	n    int
	// pending is the source whose current record was returned by the last
	// Next call. It advances at the start of the following call — not
	// immediately — because advancing can refill the source's block buffer,
	// which the returned record aliases.
	pending int
	err     error
	// cmpOVC counts matches decided by the offset-value codes alone;
	// cmpFull counts matches that fell through to comparing key bytes.
	cmpOVC  int64
	cmpFull int64
}

// newMerger opens the run files, primes every source and builds the tree.
func newMerger(runs []string, tail kv.Records) (*Merger, error) {
	m := &Merger{pending: -1}
	fail := func(err error) (*Merger, error) {
		m.Close()
		return nil, err
	}
	for _, path := range runs {
		f, err := os.Open(path)
		if err != nil {
			return fail(fmt.Errorf("extsort: open run: %w", err))
		}
		m.srcs = append(m.srcs, &mergeSource{rd: NewRunReader(f), f: f})
	}
	if tail.Len() > 0 {
		m.srcs = append(m.srcs, &mergeSource{block: tail})
	}
	for _, s := range m.srcs {
		if err := s.load(); err != nil {
			return fail(err)
		}
	}
	m.n = len(m.srcs)
	if m.n > 1 {
		m.tree = make([]int, m.n)
		m.tree[0] = m.build(1)
	}
	return m, nil
}

// build plays the initial tournament below internal node i, recording
// losers and returning the winner. Leaves of the (conceptually complete)
// binary tree are positions n..2n-1, mapping to source n-i.
func (m *Merger) build(i int) int {
	if i >= m.n {
		return i - m.n
	}
	a, b := m.build(2*i), m.build(2*i+1)
	if m.play(b, a) {
		a, b = b, a
	}
	m.tree[i] = b // loser stays at the node
	return a      // winner plays on
}

// play decides the match between sources a and b — true when a defeats b —
// comparing offset-value codes first and falling back to key bytes only on
// code ties, where it recodes the loser against the winner so the tree
// invariant (every loser coded against the key that defeated it) holds.
// Exhausted sources sort last, and equal keys by their values, so the
// merge emits the output order (see kv.Order) whatever the runs.
func (m *Merger) play(a, b int) bool {
	sa, sb := m.srcs[a], m.srcs[b]
	if sa.key == nil {
		return false
	}
	if sb.key == nil {
		return true
	}
	if sa.ovc != sb.ovc {
		m.cmpOVC++
		return sa.ovc < sb.ovc
	}
	m.cmpFull++
	// Equal codes: the keys agree with each other through the coded offset
	// (same divergence point from the shared reference, same byte there);
	// only the suffix beyond it can differ. A zero code means both keys
	// equal the reference, so the loop body never runs and the values
	// decide.
	ka, kb := sa.key, sb.key
	i := kv.KeySize - int(sa.ovc>>8) + 1
	for ; i < kv.KeySize; i++ {
		if ka[i] != kb[i] {
			break
		}
	}
	if i >= kv.KeySize {
		// Fully equal keys: the values decide, and the loser is coded
		// equal-to-winner.
		if bytes.Compare(sa.block.Value(sa.idx), sb.block.Value(sb.idx)) <= 0 {
			sb.ovc = 0
			return true
		}
		sa.ovc = 0
		return false
	}
	if ka[i] < kb[i] {
		sb.ovc = uint16(kv.KeySize-i)<<8 | uint16(kb[i])
		return true
	}
	sa.ovc = uint16(kv.KeySize-i)<<8 | uint16(ka[i])
	return false
}

// CompareStats reports the merge's match counters: matches decided by the
// offset-value codes alone and matches that compared key bytes. Their sum
// is the total loser-tree comparisons performed.
func (m *Merger) CompareStats() (ovcDecided, fullCompares int64) {
	return m.cmpOVC, m.cmpFull
}

// Next returns the record with the smallest key across all sources, or
// io.EOF when every source is drained. The returned slice aliases a
// source's current block and is valid only until the following Next call.
func (m *Merger) Next() ([]byte, error) {
	if m.err != nil {
		return nil, m.err
	}
	if m.n == 0 {
		return nil, io.EOF
	}
	if w := m.pending; w >= 0 {
		m.pending = -1
		if err := m.srcs[w].advance(); err != nil {
			m.err = err
			return nil, err
		}
		if m.n > 1 {
			// Replay the path from leaf w to the root: the new arrival at
			// the leaf plays each stored loser; winners move up. The new
			// key is coded against the key just emitted — the same
			// reference every loser on this path was last defeated by.
			cur := w
			for i := (w + m.n) / 2; i >= 1; i /= 2 {
				if m.play(m.tree[i], cur) {
					cur, m.tree[i] = m.tree[i], cur
				}
			}
			m.tree[0] = cur
		}
	}
	w := 0
	if m.n > 1 {
		w = m.tree[0]
	}
	s := m.srcs[w]
	if s.key == nil {
		return nil, io.EOF
	}
	m.pending = w
	return s.block.Record(s.idx), nil
}

// Drain streams the full merged order to emit in ascending blocks of at
// most blockRows records. The block passed to emit is reused; emit must not
// retain it.
func (m *Merger) Drain(blockRows int, emit func(kv.Records) error) error {
	if blockRows <= 0 {
		return fmt.Errorf("extsort: Drain blockRows=%d", blockRows)
	}
	block := kv.MakeRecords(blockRows)
	for {
		rec, err := m.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		block = block.Append(rec)
		if block.Len() == blockRows {
			if err := emit(block); err != nil {
				return err
			}
			block = block.Slice(0, 0)
		}
	}
	if block.Len() > 0 {
		return emit(block)
	}
	return nil
}

// Close closes the run files. The merger must not be used afterwards.
func (m *Merger) Close() error {
	var first error
	for _, s := range m.srcs {
		if s.f != nil {
			if err := s.f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	m.srcs = nil
	m.err = fmt.Errorf("extsort: merger closed")
	return first
}

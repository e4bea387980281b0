// Package placement implements the File Placement stage of both sorting
// algorithms. TeraSort splits the input into K files, one per node (paper
// Section III-A1). CodedTeraSort splits it into N = C(K, r) files, each
// placed on the r nodes of its index set S, so that every subset of r nodes
// shares exactly one file — the structure that creates the in-network coding
// opportunities (Section IV-A, Fig 4).
package placement

import (
	"fmt"

	"codedterasort/internal/combin"
	"codedterasort/internal/kv"
)

// Plan is an immutable description of which rows belong to which file and
// which nodes store each file. Files are identified both by position in
// Files and by their node set. Clique plans (Single/Redundant) list every
// R-subset in colexicographic rank order; strategy plans (FromFiles) may
// list any injective family of R-subsets, in which case an index map backs
// the set→index lookup instead of the colex rank.
type Plan struct {
	// K is the number of worker nodes.
	K int
	// R is the redundancy parameter: every file is stored on R nodes.
	// R = 1 reproduces TeraSort's placement.
	R int
	// TotalRows is the number of input records covered by the plan.
	TotalRows int64
	// Files lists the node set of every file. For clique plans this is the
	// full colex enumeration of R-subsets; strategy plans choose a subset.
	Files []combin.Set
	// Bounds holds len(Files)+1 ascending row offsets; file i covers
	// input rows [Bounds[i], Bounds[i+1]).
	Bounds []int64

	// index maps file sets to indices for plans whose Files are not the
	// complete colex enumeration. Nil for clique plans, which use the
	// O(R) colex rank instead of a map lookup.
	index map[combin.Set]int
}

// Single returns the TeraSort placement: K files, file i stored only on
// node i (node sets are singletons, so R = 1).
func Single(k int, totalRows int64) (Plan, error) {
	return Redundant(k, 1, totalRows)
}

// Redundant returns the CodedTeraSort placement for redundancy r:
// N = C(k, r) files in colex order, file S stored on the nodes of S.
func Redundant(k, r int, totalRows int64) (Plan, error) {
	if k <= 0 || k > combin.MaxNodes {
		return Plan{}, fmt.Errorf("placement: K=%d out of range", k)
	}
	if r < 1 || r > k {
		return Plan{}, fmt.Errorf("placement: r=%d out of range for K=%d", r, k)
	}
	if totalRows < 0 {
		return Plan{}, fmt.Errorf("placement: negative row count %d", totalRows)
	}
	if _, ok := combin.BinomialChecked(k, r); !ok {
		return Plan{}, fmt.Errorf("placement: C(%d,%d) files overflow int64", k, r)
	}
	files := combin.Subsets(combin.Range(k), r)
	p := Plan{
		K:         k,
		R:         r,
		TotalRows: totalRows,
		Files:     files,
		Bounds:    kv.SplitRows(totalRows, len(files)),
	}
	return p, nil
}

// FromFiles returns a plan over an explicit family of file sets, as supplied
// by a placement strategy. Every set must have exactly r members drawn from
// {0..k-1} and no set may repeat; per-node storage must be balanced, i.e.
// k must divide len(files)*r. The files keep their given order.
func FromFiles(k, r int, files []combin.Set, totalRows int64) (Plan, error) {
	if k <= 0 || k > combin.MaxNodes {
		return Plan{}, fmt.Errorf("placement: K=%d out of range", k)
	}
	if r < 1 || r > k {
		return Plan{}, fmt.Errorf("placement: r=%d out of range for K=%d", r, k)
	}
	if totalRows < 0 {
		return Plan{}, fmt.Errorf("placement: negative row count %d", totalRows)
	}
	if len(files) == 0 {
		return Plan{}, fmt.Errorf("placement: no files")
	}
	if len(files)*r%k != 0 {
		return Plan{}, fmt.Errorf("placement: %d files of replication %d do not balance over %d nodes", len(files), r, k)
	}
	universe := combin.Range(k)
	index := make(map[combin.Set]int, len(files))
	for i, f := range files {
		if f.Size() != r {
			return Plan{}, fmt.Errorf("placement: file %d has %d nodes, want %d", i, f.Size(), r)
		}
		if !f.SubsetOf(universe) {
			return Plan{}, fmt.Errorf("placement: file %d set %v outside universe", i, f)
		}
		if j, dup := index[f]; dup {
			return Plan{}, fmt.Errorf("placement: files %d and %d share node set %v", j, i, f)
		}
		index[f] = i
	}
	p := Plan{
		K:         k,
		R:         r,
		TotalRows: totalRows,
		Files:     files,
		Bounds:    kv.SplitRows(totalRows, len(files)),
		index:     index,
	}
	return p, nil
}

// NumFiles returns N, the number of input files.
func (p Plan) NumFiles() int { return len(p.Files) }

// FileRows returns the row range [first, last) of file i.
func (p Plan) FileRows(i int) (first, last int64) {
	return p.Bounds[i], p.Bounds[i+1]
}

// FileRowCount returns the number of rows in file i.
func (p Plan) FileRowCount(i int) int64 { return p.Bounds[i+1] - p.Bounds[i] }

// FilesOn returns the indices of the files stored on node, ascending.
// A node stores len(Files)*R/K files (C(K-1, R-1) under the clique plan).
func (p Plan) FilesOn(node int) []int {
	out := make([]int, 0, len(p.Files)*p.R/p.K)
	for i, f := range p.Files {
		if f.Contains(node) {
			out = append(out, i)
		}
	}
	return out
}

// FileIndex returns the index of the file with node set s, or -1 if the
// set does not index a file of this plan.
func (p Plan) FileIndex(s combin.Set) int {
	if s.Size() != p.R || !s.SubsetOf(combin.Range(p.K)) {
		return -1
	}
	if p.index != nil {
		if i, ok := p.index[s]; ok {
			return i
		}
		return -1
	}
	i := int(combin.Rank(s))
	if i >= len(p.Files) || p.Files[i] != s {
		return -1
	}
	return i
}

// StoredRows returns the total rows stored on node (its local storage
// demand). Summed over nodes this is R * TotalRows — the paper's footnote 6
// constraint that r cannot exceed total storage / input size.
func (p Plan) StoredRows(node int) int64 {
	var n int64
	for _, i := range p.FilesOn(node) {
		n += p.FileRowCount(i)
	}
	return n
}

// Validate checks the structural invariants of the plan: every file set has
// exactly R members within range and indexes exactly one file, bounds are
// monotone and cover [0, TotalRows), and per-node file counts are balanced.
// Clique plans must additionally be the complete colex enumeration of
// R-subsets with per-node count C(K-1, R-1); strategy plans (FromFiles)
// must store len(Files)*R/K files on every node.
func (p Plan) Validate() error {
	if p.index == nil {
		wantFiles, ok := combin.BinomialChecked(p.K, p.R)
		if !ok {
			return fmt.Errorf("placement: C(%d,%d) files overflow int64", p.K, p.R)
		}
		if int64(len(p.Files)) != wantFiles {
			return fmt.Errorf("placement: %d files, want C(%d,%d)=%d", len(p.Files), p.K, p.R, wantFiles)
		}
	}
	if len(p.Bounds) != len(p.Files)+1 {
		return fmt.Errorf("placement: %d bounds for %d files", len(p.Bounds), len(p.Files))
	}
	if p.Bounds[0] != 0 || p.Bounds[len(p.Bounds)-1] != p.TotalRows {
		return fmt.Errorf("placement: bounds do not cover [0,%d)", p.TotalRows)
	}
	universe := combin.Range(p.K)
	for i, f := range p.Files {
		if f.Size() != p.R {
			return fmt.Errorf("placement: file %d has %d nodes, want %d", i, f.Size(), p.R)
		}
		if !f.SubsetOf(universe) {
			return fmt.Errorf("placement: file %d set %v outside universe", i, f)
		}
		if got := p.FileIndex(f); got != i {
			return fmt.Errorf("placement: file %d set %v indexes as %d", i, f, got)
		}
		if p.Bounds[i] > p.Bounds[i+1] {
			return fmt.Errorf("placement: bounds decrease at file %d", i)
		}
	}
	if len(p.Files)*p.R%p.K != 0 {
		return fmt.Errorf("placement: %d files of replication %d do not balance over %d nodes", len(p.Files), p.R, p.K)
	}
	perNode := len(p.Files) * p.R / p.K
	for node := 0; node < p.K; node++ {
		if got := len(p.FilesOn(node)); got != perNode {
			return fmt.Errorf("placement: node %d stores %d files, want %d", node, got, perNode)
		}
	}
	return nil
}

// Materialize generates the records of file i with the given generator.
// Every node holding the file produces identical bytes because the
// generator is row-addressable; this stands in for the coordinator copying
// input files onto worker disks (Fig 8) without moving data in-process.
func (p Plan) Materialize(g *kv.Generator, i int) kv.Records {
	first, last := p.FileRows(i)
	return g.Generate(first, last-first)
}

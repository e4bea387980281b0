// Package combin provides the combinatorial substrate of CodedTeraSort:
// node sets represented as bitmasks, binomial coefficients, and ordered
// enumeration and ranking of the fixed-size subsets that index
// input files (|S| = r) and multicast groups (|M| = r+1).
//
// Nodes are numbered 0..n-1 internally (the paper numbers them 1..K; the
// examples and tests translate where they mirror a figure). A Set is a
// bitmask over at most MaxNodes nodes, so all subset operations are O(1)
// word operations, which matters because CodedTeraSort touches C(K, r+1)
// groups and C(K, r) files on every node.
package combin

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MaxNodes is the largest supported cluster size. A Set is a single uint64
// bitmask, so 64 nodes is the hard cap; the paper evaluates K = 16 and 20.
const MaxNodes = 64

// Set is a subset of {0, 1, ..., MaxNodes-1} stored as a bitmask.
// The zero value is the empty set and is ready to use.
type Set uint64

// NewSet returns the set containing exactly the given nodes.
// It panics if any node is outside [0, MaxNodes).
func NewSet(nodes ...int) Set {
	var s Set
	for _, v := range nodes {
		s = s.Add(v)
	}
	return s
}

// Range returns the full set {0, ..., n-1}. It panics if n is outside
// [0, MaxNodes].
func Range(n int) Set {
	if n < 0 || n > MaxNodes {
		panic("combin: Range size " + strconv.Itoa(n) + " out of range")
	}
	if n == MaxNodes {
		return ^Set(0)
	}
	return Set(1)<<uint(n) - 1
}

// Add returns s with node v added. It panics if v is outside [0, MaxNodes).
func (s Set) Add(v int) Set {
	if v < 0 || v >= MaxNodes {
		panic("combin: node " + strconv.Itoa(v) + " out of range")
	}
	return s | Set(1)<<uint(v)
}

// Remove returns s with node v removed.
func (s Set) Remove(v int) Set {
	if v < 0 || v >= MaxNodes {
		panic("combin: node " + strconv.Itoa(v) + " out of range")
	}
	return s &^ (Set(1) << uint(v))
}

// Contains reports whether node v is a member of s.
func (s Set) Contains(v int) bool {
	if v < 0 || v >= MaxNodes {
		return false
	}
	return s&(Set(1)<<uint(v)) != 0
}

// Size returns |s|.
func (s Set) Size() int { return bits.OnesCount64(uint64(s)) }

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// Min returns the smallest member of s. It panics on the empty set.
func (s Set) Min() int {
	if s == 0 {
		panic("combin: Min of empty set")
	}
	return bits.TrailingZeros64(uint64(s))
}

// Max returns the largest member of s. It panics on the empty set.
func (s Set) Max() int {
	if s == 0 {
		panic("combin: Max of empty set")
	}
	return 63 - bits.LeadingZeros64(uint64(s))
}

// Members returns the members of s in ascending order.
func (s Set) Members() []int {
	out := make([]int, 0, s.Size())
	for t := s; t != 0; {
		v := bits.TrailingZeros64(uint64(t))
		out = append(out, v)
		t &^= Set(1) << uint(v)
	}
	return out
}

// Index returns the position (0-based) of node v within the ascending
// member order of s, i.e. the number of members smaller than v.
// It panics if v is not a member.
func (s Set) Index(v int) int {
	if !s.Contains(v) {
		panic("combin: Index of non-member " + strconv.Itoa(v))
	}
	below := Set(1)<<uint(v) - 1
	return bits.OnesCount64(uint64(s & below))
}

// String renders the set as {a,b,c} with ascending members, matching the
// paper's notation for file indices and multicast groups.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for t := s; t != 0; {
		v := bits.TrailingZeros64(uint64(t))
		if !first {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(v))
		first = false
		t &^= Set(1) << uint(v)
	}
	b.WriteByte('}')
	return b.String()
}

// BinomialChecked returns C(n, k) and true when the exact value (and every
// intermediate product of the multiplicative evaluation) fits int64; on
// overflow it returns 0 and false instead of panicking. It returns (0, true)
// when k < 0 or k > n (the empty count is exact). This is the form placement
// validation uses to reject infeasible (K, r) with an error message — with
// CLIs accepting K up to MaxNodes, overflow is a user-reachable input, not a
// programming bug.
func BinomialChecked(n, k int) (int64, bool) {
	if k < 0 || k > n {
		return 0, true
	}
	if k > n-k {
		k = n - k
	}
	var c int64 = 1
	for i := 0; i < k; i++ {
		// Multiply first and divide after; (c * (n-i)) / (i+1) is exact
		// because c always holds C(n, i) at this point.
		hi, lo := bits.Mul64(uint64(c), uint64(n-i))
		if hi != 0 || lo > uint64(1)<<62 {
			return 0, false
		}
		c = int64(lo) / int64(i+1)
	}
	return c, true
}

// Binomial returns C(n, k), the number of k-element subsets of an n-element
// set. It returns 0 when k < 0 or k > n, and panics if the exact result
// would overflow int64. Callers whose (n, k) come from user input validate
// with BinomialChecked first; the hot combinatorial paths keep this panicking
// form because their arguments were bounded at validation time.
func Binomial(n, k int) int64 {
	c, ok := BinomialChecked(n, k)
	if !ok {
		panic(fmt.Sprintf("combin: Binomial(%d,%d) overflows", n, k))
	}
	return c
}

// Rank returns the colexicographic rank of s among all subsets of size |s|
// drawn from {0..MaxNodes-1}. Colex order ranks a set by the sum of
// C(member, position+1); it is the standard combinatorial number system and
// gives every node an O(k) way to agree on file numbering without
// materializing the full subset list.
func Rank(s Set) int64 {
	var r int64
	i := 0
	for t := s; t != 0; i++ {
		v := bits.TrailingZeros64(uint64(t))
		r += Binomial(v, i+1)
		t &^= Set(1) << uint(v)
	}
	return r
}

// Subsets returns all k-element subsets of universe in colexicographic
// order, so Subsets(Range(n), k)[i] has Rank i when universe is a prefix
// range. For a general universe the order is colex over member positions.
func Subsets(universe Set, k int) []Set {
	n := universe.Size()
	count := Binomial(n, k)
	out := make([]Set, 0, count)
	EachSubset(universe, k, func(s Set) bool {
		out = append(out, s)
		return true
	})
	return out
}

// EachSubset calls fn for every k-element subset of universe in
// colexicographic order (by position within universe). Enumeration stops
// early if fn returns false.
func EachSubset(universe Set, k int, fn func(Set) bool) {
	n := universe.Size()
	if k < 0 || k > n {
		return
	}
	if k == 0 {
		fn(0)
		return
	}
	members := universe.Members()
	// idx holds positions (into members) of the current combination in
	// ascending order; standard colex successor iteration.
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		var s Set
		for _, p := range idx {
			s = s.Add(members[p])
		}
		if !fn(s) {
			return
		}
		// Colex successor: find lowest position that can be advanced
		// without colliding with the next one.
		i := 0
		for i < k-1 && idx[i]+1 == idx[i+1] {
			i++
		}
		idx[i]++
		if idx[i] > n-k+i && i == k-1 {
			return
		}
		if idx[k-1] >= n {
			return
		}
		for j := 0; j < i; j++ {
			idx[j] = j
		}
	}
}

// SubsetsContaining returns, in the same colex order as Subsets, the
// k-element subsets of universe that contain the given node. These are the
// file indices a node stores (k = r) and the multicast groups it joins
// (k = r+1).
func SubsetsContaining(universe Set, k, node int) []Set {
	if !universe.Contains(node) {
		return nil
	}
	rest := universe.Remove(node)
	inner := Subsets(rest, k-1)
	out := make([]Set, len(inner))
	for i, s := range inner {
		out[i] = s.Add(node)
	}
	return out
}

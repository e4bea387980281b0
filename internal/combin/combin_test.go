package combin

import (
	"reflect"
	"testing"
)

func TestNewSetAndMembers(t *testing.T) {
	s := NewSet(3, 0, 7)
	if got := s.Members(); !reflect.DeepEqual(got, []int{0, 3, 7}) {
		t.Fatalf("Members = %v, want [0 3 7]", got)
	}
	if s.Size() != 3 {
		t.Fatalf("Size = %d, want 3", s.Size())
	}
	if s.String() != "{0,3,7}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestEmptySet(t *testing.T) {
	var s Set
	if s.Size() != 0 {
		t.Fatalf("zero Set should be empty")
	}
	if got := s.Members(); len(got) != 0 {
		t.Fatalf("empty Members = %v", got)
	}
	if s.String() != "{}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestRange(t *testing.T) {
	for _, n := range []int{0, 1, 5, 63, 64} {
		s := Range(n)
		if s.Size() != n {
			t.Fatalf("Range(%d).Size = %d", n, s.Size())
		}
		for v := 0; v < n; v++ {
			if !s.Contains(v) {
				t.Fatalf("Range(%d) missing %d", n, v)
			}
		}
		if n < MaxNodes && s.Contains(n) {
			t.Fatalf("Range(%d) contains %d", n, n)
		}
	}
}

func TestRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Range(65) should panic")
		}
	}()
	Range(65)
}

func TestAddRemoveContains(t *testing.T) {
	s := NewSet()
	s = s.Add(5)
	if !s.Contains(5) {
		t.Fatalf("Contains(5) = false after Add")
	}
	s = s.Remove(5)
	if s.Contains(5) {
		t.Fatalf("Contains(5) = true after Remove")
	}
	// Removing an absent element is a no-op.
	if got := NewSet(1, 2).Remove(9); got != NewSet(1, 2) {
		t.Fatalf("Remove(absent) changed the set: %v", got)
	}
	if s.Contains(-1) || s.Contains(64) {
		t.Fatalf("Contains out of range should be false")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := NewSet(0, 1, 2)
	b := NewSet(2, 3)
	if !NewSet(1).SubsetOf(a) || b.SubsetOf(a) {
		t.Fatalf("SubsetOf wrong")
	}
}

func TestMinMaxNthIndex(t *testing.T) {
	s := NewSet(4, 9, 17)
	if s.Min() != 4 || s.Max() != 17 {
		t.Fatalf("Min/Max = %d/%d", s.Min(), s.Max())
	}
	for i, want := range []int{4, 9, 17} {
		if got := s.Index(want); got != i {
			t.Fatalf("Index(%d) = %d, want %d", want, got, i)
		}
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Min of empty set should panic")
		}
	}()
	Set(0).Min()
}

func TestIndexPanicsOnNonMember(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Index of non-member should panic")
		}
	}()
	NewSet(1).Index(2)
}

func TestBinomialSmall(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {1, 0, 1}, {1, 1, 1},
		{4, 2, 6},      // C(4,2): the Fig 4 file count
		{16, 4, 1820},  // multicast groups at K=16, r=3
		{16, 6, 8008},  // K=16, r=5
		{20, 4, 4845},  // K=20, r=3
		{20, 6, 38760}, // K=20, r=5
		{16, 3, 560},
		{20, 5, 15504},
		{5, 7, 0}, {3, -1, 0},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Fatalf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialSymmetry(t *testing.T) {
	for n := 0; n <= 30; n++ {
		for k := 0; k <= n; k++ {
			if Binomial(n, k) != Binomial(n, n-k) {
				t.Fatalf("symmetry fails at (%d,%d)", n, k)
			}
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	// C(n,k) = C(n-1,k-1) + C(n-1,k) for the sizes the system uses.
	for n := 1; n <= 40; n++ {
		for k := 1; k <= n && k <= 8; k++ {
			if Binomial(n, k) != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal fails at (%d,%d)", n, k)
			}
		}
	}
}

func TestSubsetsOrderAndCount(t *testing.T) {
	subs := Subsets(Range(4), 2)
	want := []Set{
		NewSet(0, 1), NewSet(0, 2), NewSet(1, 2),
		NewSet(0, 3), NewSet(1, 3), NewSet(2, 3),
	}
	if !reflect.DeepEqual(subs, want) {
		t.Fatalf("Subsets(4,2) = %v, want %v", subs, want)
	}
}

func TestSubsetsEdgeCases(t *testing.T) {
	if got := Subsets(Range(3), 0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Subsets(3,0) = %v", got)
	}
	if got := Subsets(Range(3), 3); len(got) != 1 || got[0] != Range(3) {
		t.Fatalf("Subsets(3,3) = %v", got)
	}
	if got := Subsets(Range(3), 4); len(got) != 0 {
		t.Fatalf("Subsets(3,4) = %v", got)
	}
	if got := Subsets(Range(0), 0); len(got) != 1 {
		t.Fatalf("Subsets(0,0) = %v", got)
	}
}

func TestSubsetsMatchesBinomialCount(t *testing.T) {
	for n := 0; n <= 10; n++ {
		for k := 0; k <= n; k++ {
			if got := len(Subsets(Range(n), k)); int64(got) != Binomial(n, k) {
				t.Fatalf("len(Subsets(%d,%d)) = %d, want %d", n, k, got, Binomial(n, k))
			}
		}
	}
}

func TestRankMatchesEnumerationOrder(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for k := 1; k <= n; k++ {
			for i, s := range Subsets(Range(n), k) {
				if r := Rank(s); r != int64(i) {
					t.Fatalf("Rank(%v) = %d, want %d (n=%d,k=%d)", s, r, i, n, k)
				}
			}
		}
	}
}

func TestSubsetsContaining(t *testing.T) {
	// At K=4, r=2, node 1 stores the files indexed by {0,1},{1,2},{1,3}
	// (paper Fig 4, shifted to 0-based node ids).
	got := SubsetsContaining(Range(4), 2, 1)
	want := []Set{NewSet(0, 1), NewSet(1, 2), NewSet(1, 3)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SubsetsContaining = %v, want %v", got, want)
	}
	if got := SubsetsContaining(Range(4), 2, 9); got != nil {
		t.Fatalf("non-member should give nil, got %v", got)
	}
}

func TestSubsetsContainingCount(t *testing.T) {
	// Node k stores C(K-1, r-1) files (paper Section IV-A).
	for _, tc := range []struct{ k, r int }{{4, 2}, {16, 3}, {16, 5}, {20, 3}, {20, 5}} {
		got := len(SubsetsContaining(Range(tc.k), tc.r, 0))
		if int64(got) != Binomial(tc.k-1, tc.r-1) {
			t.Fatalf("K=%d r=%d: got %d files, want C(%d,%d)=%d",
				tc.k, tc.r, got, tc.k-1, tc.r-1, Binomial(tc.k-1, tc.r-1))
		}
	}
}

func TestEachSubsetEarlyStop(t *testing.T) {
	n := 0
	EachSubset(Range(6), 3, func(Set) bool {
		n++
		return n < 4
	})
	if n != 4 {
		t.Fatalf("early stop visited %d subsets, want 4", n)
	}
}

func TestEachSubsetGeneralUniverse(t *testing.T) {
	// Universe need not be a prefix range.
	u := NewSet(2, 5, 9)
	subs := Subsets(u, 2)
	want := []Set{NewSet(2, 5), NewSet(2, 9), NewSet(5, 9)}
	if !reflect.DeepEqual(subs, want) {
		t.Fatalf("Subsets(%v,2) = %v, want %v", u, subs, want)
	}
}

func TestEveryRSubsetIsUniqueFileIndex(t *testing.T) {
	// Structured placement invariant: every subset of r nodes has exactly
	// one file in common (paper Section IV-A). Here: colex ranks of the
	// C(K,r) subsets form exactly 0..C(K,r)-1.
	for _, tc := range []struct{ k, r int }{{4, 2}, {8, 3}, {10, 4}} {
		seen := make(map[int64]bool)
		EachSubset(Range(tc.k), tc.r, func(s Set) bool {
			r := Rank(s)
			if seen[r] {
				t.Fatalf("duplicate rank %d for %v", r, s)
			}
			seen[r] = true
			return true
		})
		if int64(len(seen)) != Binomial(tc.k, tc.r) {
			t.Fatalf("K=%d r=%d: %d ranks, want %d", tc.k, tc.r, len(seen), Binomial(tc.k, tc.r))
		}
	}
}

func BenchmarkSubsets16x4(b *testing.B) {
	u := Range(16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n := 0
		EachSubset(u, 4, func(Set) bool { n++; return true })
		if n != 1820 {
			b.Fatalf("count = %d", n)
		}
	}
}

func BenchmarkRank(b *testing.B) {
	s := NewSet(1, 5, 9, 13)
	for i := 0; i < b.N; i++ {
		_ = Rank(s)
	}
}

package placement

import (
	"strings"
	"testing"

	"codedterasort/internal/combin"
)

// TestCliqueStrategyMatchesPaperScheme: the Strategy interface view of the
// clique scheme is exactly the paper's colex enumeration — same plan as
// Redundant, group IDs the colex ranks, and per-member needed files the
// group minus the member.
func TestCliqueStrategyMatchesPaperScheme(t *testing.T) {
	const k, r, rows = 6, 3, 6000
	s, err := New(KindClique, k, r)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kind() != KindClique || s.K() != k || s.R() != r {
		t.Fatalf("identity: %s K=%d R=%d", s.Kind(), s.K(), s.R())
	}
	if int64(s.NumFiles()) != combin.Binomial(k, r) || s.NumGroups() != combin.Binomial(k, r+1) {
		t.Fatalf("counts: %d files, %d groups", s.NumFiles(), s.NumGroups())
	}
	plan, err := s.Plan(rows)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Redundant(k, r, rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range ref.Files {
		if plan.Files[i] != f || plan.Bounds[i] != ref.Bounds[i] {
			t.Fatalf("file %d differs from Redundant", i)
		}
	}

	var count int64
	wantID := int64(0)
	s.EachGroup(func(g Group) bool {
		if g.ID != wantID {
			t.Fatalf("group ID %d, want colex rank %d", g.ID, wantID)
		}
		wantID++
		count++
		m := combin.NewSet(g.Members...)
		if m.Size() != r+1 || combin.Rank(m) != g.ID {
			t.Fatalf("group %d: members %v", g.ID, g.Members)
		}
		for j, node := range g.Members {
			if g.Need[j] != m.Remove(node) {
				t.Fatalf("group %d member %d needs %v, want %v", g.ID, node, g.Need[j], m.Remove(node))
			}
		}
		return true
	})
	if count != s.NumGroups() {
		t.Fatalf("enumerated %d groups", count)
	}

	for node := 0; node < k; node++ {
		gs := s.GroupsOf(node)
		if int64(len(gs)) != combin.Binomial(k-1, r) {
			t.Fatalf("node %d joins %d groups", node, len(gs))
		}
		for _, g := range gs {
			if !combin.NewSet(g.Members...).Contains(node) {
				t.Fatalf("node %d absent from its group %v", node, g.Members)
			}
		}
	}
}

// TestResolvableStrategyInvariants: the resolvable strategy's plan places
// every file on exactly r nodes and validates, and its groups cover each
// node's missing files exactly once with every Need set servable by the
// other members.
func TestResolvableStrategyInvariants(t *testing.T) {
	for _, tc := range []struct{ k, r int }{{4, 2}, {6, 2}, {6, 3}, {9, 3}, {64, 2}} {
		s, err := New(KindResolvable, tc.k, tc.r)
		if err != nil {
			t.Fatalf("New(%d,%d): %v", tc.k, tc.r, err)
		}
		plan, err := s.Plan(int64(s.NumFiles()) * 100)
		if err != nil {
			t.Fatal(err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("K=%d r=%d: %v", tc.k, tc.r, err)
		}
		if plan.NumFiles() != s.NumFiles() {
			t.Fatalf("plan has %d files, strategy %d", plan.NumFiles(), s.NumFiles())
		}
		for i, f := range plan.Files {
			if f.Size() != tc.r {
				t.Fatalf("file %d on %d nodes", i, f.Size())
			}
			if plan.FileIndex(f) != i {
				t.Fatalf("FileIndex(%v) = %d, want %d", f, plan.FileIndex(f), i)
			}
		}

		// Coverage: per (node, file) delivery exactly once, Need servable.
		delivered := make([]map[int]bool, tc.k)
		for n := range delivered {
			delivered[n] = make(map[int]bool)
		}
		var count int64
		s.EachGroup(func(g Group) bool {
			count++
			if len(g.Members) != tc.r || len(g.Need) != tc.r {
				t.Fatalf("group %d size %d", g.ID, len(g.Members))
			}
			for j, node := range g.Members {
				fi := plan.FileIndex(g.Need[j])
				if fi < 0 {
					t.Fatalf("group %d: Need %v not a file", g.ID, g.Need[j])
				}
				if g.Need[j].Contains(node) {
					t.Fatalf("group %d delivers file %d to a node storing it", g.ID, fi)
				}
				for j2, other := range g.Members {
					if j2 != j && !g.Need[j].Contains(other) {
						t.Fatalf("group %d: member %d cannot serve file %d", g.ID, other, fi)
					}
				}
				if delivered[node][fi] {
					t.Fatalf("node %d receives file %d twice", node, fi)
				}
				delivered[node][fi] = true
			}
			return true
		})
		if count != s.NumGroups() {
			t.Fatalf("K=%d r=%d: enumerated %d groups, want %d", tc.k, tc.r, count, s.NumGroups())
		}
		for node := 0; node < tc.k; node++ {
			if want := s.NumFiles() - len(plan.FilesOn(node)); len(delivered[node]) != want {
				t.Fatalf("node %d receives %d files, misses %d", node, len(delivered[node]), want)
			}
		}
	}
}

// TestResolvableGroupCountBeatsClique: the tentpole scaling claim — at the
// shared feasible configurations the resolvable design needs an order of
// magnitude fewer groups, the C(K, r+1) CodeGen wall the strategy removes.
func TestResolvableGroupCountBeatsClique(t *testing.T) {
	for _, tc := range []struct {
		k, r     int
		minRatio float64
	}{{16, 2, 5}, {16, 4, 20}, {32, 2, 20}, {64, 2, 40}} {
		cl, err := New(KindClique, tc.k, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		re, err := New(KindResolvable, tc.k, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(cl.NumGroups()) / float64(re.NumGroups())
		if ratio < tc.minRatio {
			t.Fatalf("K=%d r=%d: clique %d vs resolvable %d groups (%.1fx < %.0fx)",
				tc.k, tc.r, cl.NumGroups(), re.NumGroups(), ratio, tc.minRatio)
		}
	}
}

// TestGroupsMatchesPaperCounts: the clique scheme's group count is
// C(K, r+1) at the paper's evaluated configurations — the count CodeGen
// time is proportional to (Section V-C).
func TestGroupsMatchesPaperCounts(t *testing.T) {
	for _, c := range []struct {
		k, r int
		want int64
	}{{16, 3, 1820}, {16, 5, 8008}, {20, 3, 4845}, {20, 5, 38760}} {
		s, err := New(KindClique, c.k, c.r)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.NumGroups(); got != c.want {
			t.Fatalf("K=%d r=%d: %d groups, want %d", c.k, c.r, got, c.want)
		}
	}
}

// TestResolvableGroupsClosedForm: the resolvable design has q^r - q^(r-1)
// groups with q = K/r, strictly fewer than the clique scheme's C(K, r+1)
// whenever q > 2.
func TestResolvableGroupsClosedForm(t *testing.T) {
	for _, c := range []struct {
		k, r int
		want int64
	}{{4, 2, 2}, {8, 2, 12}, {16, 2, 56}, {16, 4, 192}, {32, 2, 240}, {64, 2, 992}, {9, 3, 18}} {
		s, err := New(KindResolvable, c.k, c.r)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.NumGroups(); got != c.want {
			t.Fatalf("K=%d r=%d: %d groups, want %d", c.k, c.r, got, c.want)
		}
		if clique := combin.Binomial(c.k, c.r+1); c.k/c.r > 2 && c.want >= clique {
			t.Fatalf("K=%d r=%d: %d resolvable groups >= C(%d,%d) = %d", c.k, c.r, c.want, c.k, c.r+1, clique)
		}
	}
	if _, err := New(KindResolvable, 0, 2); err == nil {
		t.Fatal("resolvable K=0 accepted")
	}
}

// TestNewRejectsInfeasible: every infeasible (kind, K, r) fails with a
// clear error, never a panic — including the binomial overflow the clique
// scheme hits at large K and the divisibility the resolvable one needs.
func TestNewRejectsInfeasible(t *testing.T) {
	cases := []struct {
		kind Kind
		k, r int
		want string
	}{
		{"nope", 4, 2, "unknown strategy"},
		{KindClique, 0, 1, "out of range"},
		{KindClique, 4, 5, "out of range"},
		{KindClique, 64, 16, "exceed"},
		{KindResolvable, 5, 2, "multiple"},
		{KindResolvable, 4, 1, "r >= 2"},
		{KindResolvable, 4, 4, "q >= 2"},
	}
	for _, c := range cases {
		_, err := New(c.kind, c.k, c.r)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("New(%s,%d,%d) = %v, want error containing %q", c.kind, c.k, c.r, err, c.want)
		}
	}
	// The overflow message points at the resolvable alternative.
	_, err := New(KindClique, 64, 16)
	if !strings.Contains(err.Error(), "resolvable") {
		t.Fatalf("overflow error does not suggest the resolvable strategy: %v", err)
	}
}

// TestParseKind: the empty string is clique (zero-valued configs and old
// wire specs keep their meaning) and unknown names error.
func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{"": KindClique, "clique": KindClique, "resolvable": KindResolvable} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Fatalf("ParseKind(%q) = %s, %v", s, got, err)
		}
	}
	if _, err := ParseKind("ring"); err == nil {
		t.Fatal("ParseKind accepted an unknown name")
	}
}

// TestFromFilesValidation: the explicit-file constructor rejects malformed
// layouts the resolvable adapter could otherwise smuggle into a plan.
func TestFromFilesValidation(t *testing.T) {
	good := []combin.Set{combin.NewSet(0, 1), combin.NewSet(2, 3), combin.NewSet(0, 2), combin.NewSet(1, 3)}
	if _, err := FromFiles(4, 2, good, 400); err != nil {
		t.Fatal(err)
	}
	bad := [][]combin.Set{
		{combin.NewSet(0, 1, 2), combin.NewSet(2, 3)},                   // wrong size
		{combin.NewSet(0, 4), combin.NewSet(1, 2)},                      // outside the universe
		{combin.NewSet(0, 1), combin.NewSet(0, 1)},                      // duplicate
		{combin.NewSet(0, 1), combin.NewSet(1, 2), combin.NewSet(2, 3)}, // 6 slots over 4 nodes
		{}, // no files
	}
	for i, files := range bad {
		if _, err := FromFiles(4, 2, files, 400); err == nil {
			t.Fatalf("bad layout %d accepted", i)
		}
	}
	// Aggregate balance can hold while per-node balance does not; that
	// lands on Validate.
	skewed, err := FromFiles(4, 2, []combin.Set{combin.NewSet(0, 1), combin.NewSet(1, 2)}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if err := skewed.Validate(); err == nil {
		t.Fatal("per-node imbalance validated")
	}
}

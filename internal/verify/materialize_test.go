package verify

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"codedterasort/internal/kv"
	"codedterasort/internal/placement"
)

// TestMaterializeMatchesGenerate: the three forms of the one
// generate-and-describe loop agree. Materialize's files, concatenated, are
// Generate(0, rows) byte for byte, each is MaterializeFile's on any core
// count (described as Describe describes it, or not at all), and their
// description is DescribeGenerated's, for every distribution, across row
// counts that leave files empty, shorter than a piece and spanning many
// pieces, under the clique r = 1, clique K = 4 r = 2 and resolvable K = 6
// r = 3 plans. The largest row count takes one plan per distribution, in
// rotation, to keep the race build affordable.
func TestMaterializeMatchesGenerate(t *testing.T) {
	plans := []struct {
		kind placement.Kind
		k, r int
	}{
		{placement.KindClique, 4, 1},
		{placement.KindClique, 4, 2},
		{placement.KindResolvable, 6, 3},
	}
	dists := append([]kv.Distribution{kv.DistUniform, kv.DistSkewed}, kv.SkewedDistributions...)
	for di, dist := range dists {
		g := kv.NewGenerator(uint64(31+di), dist)
		for _, rows := range []int64{0, 1, 7, 4096, 100003} {
			want := g.Generate(0, rows)
			wantIn := DescribeGenerated(g, rows)
			if wantIn != Describe(want) {
				t.Fatalf("%v rows=%d: DescribeGenerated %+v, Describe %+v", dist, rows, wantIn, Describe(want))
			}
			for pi, pl := range plans {
				if rows == 100003 && pi != di%len(plans) {
					continue
				}
				name := fmt.Sprintf("%v/rows=%d/%s-K%d-r%d", dist, rows, pl.kind, pl.k, pl.r)
				strat, err := placement.New(pl.kind, pl.k, pl.r)
				if err != nil {
					t.Fatal(err)
				}
				plan, err := strat.Plan(rows)
				if err != nil {
					t.Fatal(err)
				}
				files, in, err := Materialize(context.Background(), g, plan.Bounds)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(files) != plan.NumFiles() {
					t.Fatalf("%s: %d files, plan has %d", name, len(files), plan.NumFiles())
				}
				var got kv.Records
				for i, f := range files {
					if int64(f.Len()) != plan.FileRowCount(i) {
						t.Fatalf("%s: file %d has %d rows, plan says %d", name, i, f.Len(), plan.FileRowCount(i))
					}
					got = got.AppendRecords(f)
					// One holder's placement of the file, described or not;
					// of the largest row count, the first file's only.
					if rows == 100003 && i > 0 {
						continue
					}
					first, last := plan.FileRows(i)
					for _, describe := range []bool{false, true} {
						one, oneIn, err := MaterializeFile(context.Background(), g, first, last, 1+i%3, describe)
						if err != nil {
							t.Fatalf("%s: file %d: %v", name, i, err)
						}
						wantOne := Input{}
						if describe {
							wantOne = Describe(f)
						}
						if !one.Equal(f) || oneIn != wantOne {
							t.Fatalf("%s: MaterializeFile(%d, describe=%v) differs from Materialize's file", name, i, describe)
						}
					}
				}
				if !got.Equal(want) {
					t.Fatalf("%s: materialized files differ from Generate(0, rows)", name)
				}
				if in != wantIn {
					t.Fatalf("%s: Materialize described %+v, DescribeGenerated %+v", name, in, wantIn)
				}
			}
		}
	}
}

// TestMaterializeRefusesBadBounds: bounds that do not start at row 0, or
// that decrease, are refused rather than generating a partial or
// overlapping input.
func TestMaterializeRefusesBadBounds(t *testing.T) {
	g := kv.NewGenerator(1, kv.DistUniform)
	for _, c := range []struct {
		bounds []int64
		want   string
	}{
		{nil, "start at row 0"},
		{[]int64{5, 10}, "start at row 0"},
		{[]int64{0, 10, 4, 20}, "decrease at file 1"},
	} {
		if _, _, err := Materialize(context.Background(), g, c.bounds); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("bounds %v: err %v, want %q", c.bounds, err, c.want)
		}
	}
}

// TestMaterializeCanceled: a canceled context stops the loop with the
// context's error and no files, in both forms that keep them.
func TestMaterializeCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	files, _, err := Materialize(ctx, kv.NewGenerator(1, kv.DistUniform), []int64{0, 5000, 10000})
	if !errors.Is(err, context.Canceled) || files != nil {
		t.Fatalf("canceled materialize: %d files, err %v", len(files), err)
	}
	file, _, err := MaterializeFile(ctx, kv.NewGenerator(1, kv.DistUniform), 5000, 10000, 2, true)
	if !errors.Is(err, context.Canceled) || file.Len() != 0 {
		t.Fatalf("canceled file: %d rows, err %v", file.Len(), err)
	}
}

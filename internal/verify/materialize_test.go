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

// TestMaterializeMatchesGenerate: the two forms of the one
// generate-and-describe loop agree. The files of a plan, each made by
// MaterializeFile on any core count and concatenated, are Generate(0, rows)
// byte for byte; each is described as Describe describes it, or not at
// all, and their descriptions total DescribeGenerated's, for every
// distribution, across row counts that leave files empty, shorter than a
// piece and spanning many pieces, under the clique r = 1, clique K = 4
// r = 2 and resolvable K = 6 r = 3 plans. The largest row count takes one
// plan per distribution, in rotation, to keep the race build affordable.
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
				var got kv.Records
				var in Input
				for i := range plan.NumFiles() {
					first, last := plan.FileRows(i)
					f, fIn, err := MaterializeFile(context.Background(), g, first, last, 1+i%3, true)
					if err != nil {
						t.Fatalf("%s: file %d: %v", name, i, err)
					}
					if int64(f.Len()) != plan.FileRowCount(i) || fIn != Describe(f) {
						t.Fatalf("%s: file %d has %d rows described as %+v, plan says %d rows", name, i, f.Len(), fIn, plan.FileRowCount(i))
					}
					got = got.AppendRecords(f)
					in.Rows += fIn.Rows
					in.Checksum += fIn.Checksum
					// Undescribed, the same bytes and a zero Input; of the
					// largest row count, the first file's only.
					if rows == 100003 && i > 0 {
						continue
					}
					one, oneIn, err := MaterializeFile(context.Background(), g, first, last, 1+(i+1)%3, false)
					if err != nil {
						t.Fatalf("%s: file %d: %v", name, i, err)
					}
					if !one.Equal(f) || oneIn != (Input{}) {
						t.Fatalf("%s: undescribed MaterializeFile(%d) differs from the described one", name, i)
					}
				}
				if !got.Equal(want) {
					t.Fatalf("%s: materialized files differ from Generate(0, rows)", name)
				}
				if in != wantIn {
					t.Fatalf("%s: files described as %+v, DescribeGenerated %+v", name, in, wantIn)
				}
			}
		}
	}
}

// TestMaterializeRefusesBadBounds: rows that are not a range — a negative
// first row, or a last row before the first — are refused rather than
// generating a partial or wrapped file.
func TestMaterializeRefusesBadBounds(t *testing.T) {
	g := kv.NewGenerator(1, kv.DistUniform)
	for _, c := range []struct{ first, last int64 }{{-5, 10}, {10, 4}} {
		if _, _, err := MaterializeFile(context.Background(), g, c.first, c.last, 2, true); err == nil || !strings.Contains(err.Error(), "not a range") {
			t.Errorf("rows [%d, %d): err %v, want %q", c.first, c.last, err, "not a range")
		}
	}
}

// TestMaterializeCanceled: a canceled context stops the loop with the
// context's error and no file.
func TestMaterializeCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	file, _, err := MaterializeFile(ctx, kv.NewGenerator(1, kv.DistUniform), 5000, 10000, 2, true)
	if !errors.Is(err, context.Canceled) || file.Len() != 0 {
		t.Fatalf("canceled file: %d rows, err %v", file.Len(), err)
	}
}

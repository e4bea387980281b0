package coded

import (
	"bytes"
	"testing"

	"codedterasort/internal/combin"
	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/placement"
	"codedterasort/internal/transport"
)

func TestInjectedInputMatchesGenerated(t *testing.T) {
	// Supplying the generator's own files via Input must give outputs
	// identical to generated mode.
	const k, rows, seed = 4, 1200, 31
	for _, r := range []int{1, 2} {
		plan, err := placement.Redundant(k, r, rows)
		if err != nil {
			t.Fatal(err)
		}
		gen := kv.NewGenerator(seed, kv.DistUniform)
		input := make([]kv.Records, plan.NumFiles())
		for i := range input {
			input[i] = plan.Materialize(gen, i)
		}
		genResults := runAll(t, cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: seed}))
		injected := cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: seed})
		injected.Input = input
		injResults := runAll(t, injected)
		for rank := range genResults {
			if !genResults[rank].Output.Equal(injResults[rank].Output) {
				t.Fatalf("r=%d rank %d output differs between generated and injected input", r, rank)
			}
		}
	}
}

func TestParallelShuffleMatchesSerial(t *testing.T) {
	for _, r := range []int{1, 2} {
		base := cfgOf(job.Spec{K: 5, R: r, Rows: 2500, Seed: 32})
		serial := runAll(t, base)
		par := base
		par.ParallelShuffle = true
		parallel := runAll(t, par)
		for rank := range serial {
			if !serial[rank].Output.Equal(parallel[rank].Output) {
				t.Fatalf("r=%d rank %d differs between schedules", r, rank)
			}
		}
	}
}

func TestParallelWithTreeMulticast(t *testing.T) {
	cfg := cfgOf(job.Spec{K: 6, R: 3, Rows: 3000, Seed: 33, TreeMulticast: true, ParallelShuffle: true})
	results := runAll(t, cfg)
	all := allOutput(results)
	want := kv.NewGenerator(33, kv.DistUniform).Generate(0, 3000)
	want.Sort()
	if !all.Equal(want) {
		t.Fatalf("parallel tree multicast output wrong")
	}
}

func TestFilterGrep(t *testing.T) {
	// The "Beyond Sorting" hook: only matching records survive, and the
	// distributed result equals a sequential filter+sort — uncoded grep at
	// r = 1, coded grep above.
	const k, rows, seed = 4, 4000, 34
	pattern := []byte("AB")
	match := func(rec []byte) bool { return bytes.Contains(rec[kv.KeySize:], pattern) }
	data := kv.NewGenerator(seed, kv.DistUniform).Generate(0, rows)
	want := kv.MakeRecords(0)
	for i := 0; i < data.Len(); i++ {
		if match(data.Record(i)) {
			want = want.Append(data.Record(i))
		}
	}
	want.Sort()
	if want.Len() == 0 {
		t.Fatalf("degenerate test: no matches")
	}
	for _, r := range []int{1, 2} {
		cfg := cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: seed})
		cfg.Filter = match
		results := runAll(t, cfg)
		if got := allOutput(results); !got.Equal(want) {
			t.Fatalf("r=%d grep: %d records, want %d", r, got.Len(), want.Len())
		}
	}
}

func TestFilterShrinksShuffle(t *testing.T) {
	const k, rows, seed = 4, 4000, 43
	for _, r := range []int{1, 2} {
		cfg := cfgOf(job.Spec{K: k, R: r, Rows: rows, Seed: seed})
		full := runAll(t, cfg)
		cfg.Filter = func(rec []byte) bool { return rec[0] < 0x20 } // ~1/8 of records
		filtered := runAll(t, cfg)
		var fullBytes, filteredBytes int64
		for i := range full {
			fullBytes += full[i].SentBytes
			filteredBytes += filtered[i].SentBytes
		}
		if filteredBytes*4 >= fullBytes {
			t.Fatalf("r=%d: filtered shuffle %d not much smaller than full %d", r, filteredBytes, fullBytes)
		}
	}
}

func TestFilterRejectAll(t *testing.T) {
	cfg := cfgOf(job.Spec{K: 4, R: 2, Rows: 400, Seed: 35})
	cfg.Filter = func([]byte) bool { return false }
	results := runAll(t, cfg)
	for rank, res := range results {
		if res.Output.Len() != 0 {
			t.Fatalf("rank %d produced %d records under reject-all filter", rank, res.Output.Len())
		}
	}
}

func TestGroupTagUniqueness(t *testing.T) {
	// Tags must be unique across (stage, group, root) triples for the
	// largest evaluated configuration (K=20, r=5: 38760 groups).
	seen := map[transport.Tag]bool{}
	groups := combin.Subsets(combin.Range(12), 4)
	for _, g := range groups {
		gr := combin.Rank(g)
		for _, root := range g.Members() {
			for _, stage := range []uint8{tagCodeGen, tagMulticast} {
				tag := groupTag(stage, gr, root)
				if seen[tag] {
					t.Fatalf("tag collision for group %v root %d stage %#x", g, root, stage)
				}
				seen[tag] = true
			}
		}
	}
}

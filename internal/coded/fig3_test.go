package coded

import (
	"sync"
	"testing"

	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/transport"
	"codedterasort/internal/transport/memnet"
)

// fig3Record builds a record whose key encodes the small integer v in its
// first byte (the walkthrough's keys 0-99) and whose value remembers v.
func fig3Record(v int) []byte {
	rec := make([]byte, kv.RecordSize)
	rec[0] = byte(v)
	rec[kv.KeySize] = byte(v)
	return rec
}

func fig3File(vals ...int) kv.Records {
	r := kv.MakeRecords(len(vals))
	for _, v := range vals {
		r = r.Append(fig3Record(v))
	}
	return r
}

func fig3Key(v int) []byte {
	k := make([]byte, kv.KeySize)
	k[0] = byte(v)
	return k
}

// TestFig3Walkthrough replays the paper's Fig 3 exactly: K=4 nodes, key
// domain partitions [0,25), [25,50), [50,75), [75,100], input files
//
//	node 1: 1,17,34,51,69,83    node 2: 8,23,39,52,72,87
//	node 3: 12,28,45,53,78,90   node 4: 16,30,47,64,80,99
//
// and checks the exact reduced outputs:
//
//	node 1: 1,8,12,16,17,23     node 2: 28,30,34,39,45,47
//	node 3: 51,52,53,64,69,72   node 4: 78,80,83,87,90,99
func TestFig3Walkthrough(t *testing.T) {
	input := []kv.Records{
		fig3File(1, 17, 34, 51, 69, 83),
		fig3File(8, 23, 39, 52, 72, 87),
		fig3File(12, 28, 45, 53, 78, 90),
		fig3File(16, 30, 47, 64, 80, 99),
	}
	part, err := partition.NewSplitters([][]byte{fig3Key(25), fig3Key(50), fig3Key(75)})
	if err != nil {
		t.Fatal(err)
	}
	cfg := cfgOf(job.Spec{K: 4, R: 1})
	cfg.Local = supplied(input)
	cfg.Part = part

	mesh := memnet.NewMesh(4)
	defer mesh.Close()
	results := make([]Result, 4)
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			ep := transport.WithCollectives(mesh.Endpoint(rank))
			results[rank], errs[rank] = Run(ep, cfg)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}

	want := [][]int{
		{1, 8, 12, 16, 17, 23},
		{28, 30, 34, 39, 45, 47},
		{51, 52, 53, 64, 69, 72},
		{78, 80, 83, 87, 90, 99},
	}
	for rank, res := range results {
		if res.Output.Len() != len(want[rank]) {
			t.Fatalf("node %d reduced %d records, want %d", rank+1, res.Output.Len(), len(want[rank]))
		}
		for i, v := range want[rank] {
			if got := int(res.Output.Key(i)[0]); got != v {
				t.Fatalf("node %d position %d: key %d, want %d", rank+1, i, got, v)
			}
			// Values travel with their keys through the shuffle.
			if got := int(res.Output.Value(i)[0]); got != v {
				t.Fatalf("node %d position %d: value %d, want %d", rank+1, i, got, v)
			}
		}
	}
}

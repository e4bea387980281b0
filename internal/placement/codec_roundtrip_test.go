package placement

import (
	"testing"

	"codedterasort/internal/codec"
	"codedterasort/internal/kv"
)

// buildStores maps a synthetic input across a strategy's plan: stores[n]
// holds every IV node n computes locally (partition p of every file stored
// on n), truth holds every IV of the job.
func buildStores(t *testing.T, s Strategy, plan Plan, seed uint64) (stores []codec.IVMap, truth codec.IVMap) {
	t.Helper()
	k := s.K()
	truth = codec.IVMap{}
	stores = make([]codec.IVMap, k)
	for i := range stores {
		stores[i] = codec.IVMap{}
	}
	g := kv.NewGenerator(seed, kv.DistUniform)
	for fi, file := range plan.Files {
		recs := plan.Materialize(g, fi)
		parts := make([]kv.Records, k)
		for p := range parts {
			parts[p] = kv.MakeRecords(0)
		}
		for i := 0; i < recs.Len(); i++ {
			p := int(recs.Key(i)[0]) * k / 256
			parts[p] = parts[p].Append(recs.Record(i))
		}
		for p := range parts {
			truth.Put(p, file, parts[p])
			for _, node := range file.Members() {
				stores[node].Put(p, file, parts[p])
			}
		}
	}
	return stores, truth
}

// TestGroupCodecRoundTripAcrossStrategies drives the strategy-generic
// group codec with real groups of both strategies: every member of every
// group encodes its packet, every other member decodes and merges the
// segments, and the recovered IV must equal the ground truth — the same
// invariant TestEncodeDecodeAllGroups pins for the clique scheme, now
// over groups whose members are not (r+1)-subsets and whose needed files
// are not the member complement. The chunked variants must reassemble to
// the identical records.
func TestGroupCodecRoundTripAcrossStrategies(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		k, r int
	}{
		{KindClique, 5, 2}, {KindClique, 5, 3},
		{KindResolvable, 4, 2}, {KindResolvable, 6, 2}, {KindResolvable, 6, 3}, {KindResolvable, 8, 4},
	} {
		s, err := New(tc.kind, tc.k, tc.r)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := s.Plan(int64(s.NumFiles()) * 60)
		if err != nil {
			t.Fatal(err)
		}
		stores, truth := buildStores(t, s, plan, uint64(tc.k*10+tc.r))
		const chunkRows = 7
		s.EachGroup(func(g Group) bool {
			packets := make(map[int][]byte, len(g.Members))
			chunked := make(map[int][][]byte, len(g.Members))
			for _, u := range g.Members {
				p, err := codec.EncodeGroupPacket(stores[u], g.Group, u)
				if err != nil {
					t.Fatalf("%s K=%d r=%d group %d encode at %d: %v", tc.kind, tc.k, tc.r, g.ID, u, err)
				}
				packets[u] = p
				n := codec.GroupPacketChunkCount(stores[u], g.Group, u, chunkRows)
				cs := make([][]byte, n)
				for c := 0; c < n; c++ {
					if cs[c], err = codec.EncodeGroupPacketChunk(stores[u], g.Group, u, chunkRows, c); err != nil {
						t.Fatalf("group %d chunk %d encode at %d: %v", g.ID, c, u, err)
					}
				}
				chunked[u] = cs
			}
			for j, node := range g.Members {
				want := truth.IV(node, g.Need[j])
				var got, gotChunked kv.Records
				for _, u := range g.Members {
					if u == node {
						continue
					}
					seg, err := codec.DecodeGroupPacket(stores[node], g.Group, node, u, packets[u])
					if err != nil {
						t.Fatalf("%s K=%d r=%d group %d decode at %d from %d: %v", tc.kind, tc.k, tc.r, g.ID, node, u, err)
					}
					got = got.AppendRecords(seg)
					var reassembled kv.Records
					for c, pkt := range chunked[u] {
						part, err := codec.DecodeGroupPacketChunk(stores[node], g.Group, node, u, chunkRows, c, pkt)
						if err != nil {
							t.Fatalf("group %d chunk %d decode at %d from %d: %v", g.ID, c, node, u, err)
						}
						reassembled = reassembled.AppendRecords(part)
					}
					if !reassembled.Equal(seg) {
						t.Fatalf("%s K=%d r=%d group %d: chunked segment from %d differs", tc.kind, tc.k, tc.r, g.ID, u)
					}
					gotChunked = gotChunked.AppendRecords(reassembled)
				}
				if !got.Equal(want) {
					t.Fatalf("%s K=%d r=%d group %d node %d: recovered IV mismatch (%d vs %d records)",
						tc.kind, tc.k, tc.r, g.ID, node, got.Len(), want.Len())
				}
				if !gotChunked.Equal(want) {
					t.Fatalf("%s K=%d r=%d group %d node %d: chunked recovery mismatch", tc.kind, tc.k, tc.r, g.ID, node)
				}
			}
			return true
		})
	}
}

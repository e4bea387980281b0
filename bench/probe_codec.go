package main

import (
	"fmt"

	"codedterasort/internal/codec"
	"codedterasort/internal/coded"
	"codedterasort/internal/partition"
	"codedterasort/internal/placement"
)

// codecInner repeats the per-group loops inside one timing: a rank's
// packets are a few MB, too short to time once.
const codecInner = 8

// probeCodec times the serialization and coding layer the way the engines
// drive it, on the K=4, r=2 intermediate values of ranks 0 and 1: the
// uncoded Pack/Unpack pair, whole-packet Encode (rank 0, every group it
// belongs to) and Decode (rank 1, rank 0's packets), the chunked Encode of
// the streaming path, and the XOR kernel under all of them.
func probeCodec(s *shape) (map[string]float64, error) {
	const r = 2
	strat, err := placement.New(placement.KindClique, ranks, r)
	if err != nil {
		return nil, err
	}
	plan, err := strat.Plan(s.c.rows)
	if err != nil {
		return nil, err
	}
	part := partition.NewUniform(ranks)
	store0 := coded.MapFiles(plan, part, s.gen, 0)
	store1 := coded.MapFiles(plan, part, s.gen, 1)
	groups := strat.GroupsOf(0)
	out := map[string]float64{"placement.groups": float64(strat.NumGroups())}

	// Pack + zero-copy Unpack of one reducer-bound intermediate value.
	var packed int64
	pack, err := timeOp(probeReps, nil, func() error {
		payload := codec.PackIV(s.part)
		packed = int64(len(payload))
		got, err := codec.UnpackIVZeroCopy(payload)
		if err != nil {
			return err
		}
		if got.Len() != s.part.Len() {
			return fmt.Errorf("unpacked %d rows, want %d", got.Len(), s.part.Len())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["codec.pack_mb_s"] = mbPerS(packed, pack)

	// Whole-packet Encode: rank 0's Encode stage.
	packets := make([][]byte, len(groups))
	var encoded int64
	encode, err := timeOp(probeReps, nil, func() error {
		encoded = 0
		for n := 0; n < codecInner; n++ {
			for i, g := range groups {
				codec.Recycle(packets[i])
				p, err := codec.EncodeGroupPacket(store0, g.Group, 0)
				if err != nil {
					return err
				}
				packets[i] = p
				encoded += int64(len(p))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["codec.encode_mb_s"] = mbPerS(encoded, encode)

	// Decode at rank 1 of rank 0's packet in every group holding both.
	var decoded int64
	decode, err := timeOp(probeReps, nil, func() error {
		decoded = 0
		for n := 0; n < codecInner; n++ {
			for i, g := range groups {
				i1 := g.Index(1)
				if i1 < 0 {
					continue
				}
				seg, err := codec.DecodeGroupPacket(store1, g.Group, 1, 0, packets[i])
				if err != nil {
					return err
				}
				// Rank 0 also holds the value rank 1 is recovering, so the
				// expected segment is directly available.
				pos := g.Index(0)
				if pos > i1 {
					pos--
				}
				if want := codec.Segment(store0.IV(1, g.Need[i1]), r, pos); !seg.Equal(want) {
					return fmt.Errorf("group %v: decoded segment differs from the mapped value", g.Members)
				}
				decoded += int64(len(packets[i]))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["codec.decode_mb_s"] = mbPerS(decoded, decode)

	// Chunked Encode + chunk framing: the streaming path's send side.
	chunkRows := 4096
	var chunked int64
	chunk, err := timeOp(probeReps, nil, func() error {
		chunked = 0
		for n := 0; n < codecInner; n++ {
			for _, g := range groups {
				count := codec.GroupPacketChunkCount(store0, g.Group, 0, chunkRows)
				for c := 0; c < count; c++ {
					pkt, err := codec.EncodeGroupPacketChunk(store0, g.Group, 0, chunkRows, c)
					if err != nil {
						return err
					}
					frame := codec.FrameChunk(uint32(c), c == count-1, pkt)
					chunked += int64(len(frame))
					codec.Recycle(pkt)
					codec.Recycle(frame)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["codec.chunk_encode_mb_s"] = mbPerS(chunked, chunk)

	// XORInto on 64 KiB, cache resident.
	const xorBytes, xorReps = 64 << 10, 4096
	dst, src := make([]byte, xorBytes), make([]byte, xorBytes)
	for i := range src {
		src[i] = byte(i)
	}
	xor, err := timeOp(probeReps, nil, func() error {
		for n := 0; n < xorReps; n++ {
			codec.XORInto(dst, src)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["codec.xor_gb_s"] = mbPerS(xorBytes*xorReps, xor) / 1e3
	return out, nil
}

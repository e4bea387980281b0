package codec

import (
	"encoding/binary"
	"fmt"

	"codedterasort/internal/combin"
	"codedterasort/internal/kv"
)

// Group carries the per-group coding metadata of a placement strategy: the
// group's member nodes in ascending rank order and, for each member, the
// file (node set) that member recovers in this group. The structure
// Algorithms 1 and 2 require is that Need[i] is stored on every member
// except Members[i] and not on Members[i] itself; under it the clique
// scheme and resolvable designs share one encode/decode formula.
//
// The clique scheme's group M has Members = M and Need[i] = M \ Members[i]
// (see CliqueGroup); resolvable designs supply smaller groups whose needed
// files are not subsets of the group.
type Group struct {
	Members []int
	Need    []combin.Set
}

// CliqueGroup returns the clique scheme's metadata for group M: every
// member needs the file indexed by the other members.
func CliqueGroup(m combin.Set) Group {
	members := m.Members()
	need := make([]combin.Set, len(members))
	for i, t := range members {
		need[i] = m.Remove(t)
	}
	return Group{Members: members, Need: need}
}

// Index returns the position of node in Members, or -1 if it is not a
// member. Members are few (r or r+1), so the linear scan is the right tool.
func (g Group) Index(node int) int {
	for i, m := range g.Members {
		if m == node {
			return i
		}
	}
	return -1
}

// Contains reports whether node is a member of the group.
func (g Group) Contains(node int) bool { return g.Index(node) >= 0 }

// segments returns the per-IV segment count: every needed IV splits into
// one segment per potential sender, i.e. the group size minus the receiver.
func (g Group) segments() int { return len(g.Members) - 1 }

// senderPos returns the segment index assigned to the sender at member
// position is for the IV needed by the member at position it: the sender's
// position among the members excluding the receiver. Ascending member order
// makes this agree on every node, the generalization of the clique rule
// "segment file.Index(k) of I^t_{M\{t}}".
func senderPos(is, it int) int {
	if is < it {
		return is
	}
	return is - 1
}

// check validates that k is a group member and the group is large enough to
// code, returning k's member position.
func (g Group) check(k int) (int, error) {
	ik := g.Index(k)
	if ik < 0 {
		return 0, fmt.Errorf("codec: node %d not in group %v", k, g.Members)
	}
	if g.segments() < 1 {
		return 0, fmt.Errorf("codec: group %v too small", g.Members)
	}
	if len(g.Need) != len(g.Members) {
		return 0, fmt.Errorf("codec: group %v has %d needed files for %d members", g.Members, len(g.Need), len(g.Members))
	}
	return ik, nil
}

// terms lists the segments XORed into the packet the member at position is
// sends, leaving out the IV needed by the member at position skip: a
// decoder cancelling side information skips its own IV, an encoder passes
// -1. chunkRows > 0 narrows every segment to its chunk c. The terms come in
// ascending member order, which is what makes the XOR agree on every node.
func (g Group) terms(store IVStore, is, skip, chunkRows, c int) []kv.Records {
	nseg := g.segments()
	out := make([]kv.Records, 0, nseg)
	for j, t := range g.Members {
		if j == is || j == skip {
			continue
		}
		seg := Segment(store.IV(t, g.Need[j]), nseg, senderPos(is, j))
		if chunkRows > 0 {
			seg = chunkOf(seg, chunkRows, c)
		}
		out = append(out, seg)
	}
	return out
}

// packetWidth returns the wire size of the packet of the given terms: the
// frame of the widest one.
func packetWidth(terms []kv.Records) int {
	width := frameHeader
	for _, seg := range terms {
		width = max(width, FrameSize(seg.Size()))
	}
	return width
}

// encode builds the packet of the given terms in a pooled buffer: each term
// is wrapped in a length-headed frame padded to the widest one. The first
// term is copied in and the rest XORed onto it, so a packet with a single
// term — every packet of a two-member group — is that segment's frame: one
// copy, no XOR pass.
func encode(terms []kv.Records) []byte {
	packet := getBuf(packetWidth(terms))
	first := terms[0].Bytes()
	binary.BigEndian.PutUint32(packet, uint32(len(first)))
	copy(packet[frameHeader:], first)
	clear(packet[frameHeader+len(first):])
	for _, seg := range terms[1:] {
		xorFrameInto(packet, seg.Bytes())
	}
	return packet
}

// decode cancels the side-information terms from packet and opens the frame
// that remains. With nothing to cancel — a two-member group — the packet is
// the needed segment's frame and is opened in place: the returned records
// alias packet, which the caller owns. Otherwise the cancellation runs on a
// pooled copy and the recovered segment is copied out, leaving packet
// untouched.
func decode(terms []kv.Records, packet []byte) (kv.Records, error) {
	if len(terms) == 0 {
		segBytes, err := openFrame(packet)
		if err != nil {
			return kv.Records{}, err
		}
		return kv.NewRecords(segBytes)
	}
	acc := getBuf(len(packet))
	defer Recycle(acc)
	copy(acc, packet)
	for _, seg := range terms {
		if FrameSize(seg.Size()) > len(acc) {
			return kv.Records{}, fmt.Errorf("codec: side-information segment (%d bytes) wider than packet (%d)",
				seg.Size(), len(acc))
		}
		xorFrameInto(acc, seg.Bytes())
	}
	segBytes, err := openFrame(acc)
	if err != nil {
		return kv.Records{}, err
	}
	return kv.NewRecords(append([]byte(nil), segBytes...))
}

// decoderPositions validates a decode call and returns the member positions
// of the receiver k and the sender u.
func (g Group) decoderPositions(k, u int) (ik, iu int, err error) {
	if ik, err = g.check(k); err != nil {
		return 0, 0, err
	}
	iu = g.Index(u)
	if iu < 0 || k == u {
		return 0, 0, fmt.Errorf("codec: decode with k=%d u=%d not distinct members of %v", k, u, g.Members)
	}
	return ik, iu, nil
}

// EncodeGroupPacket builds the coded packet E_{M,k} that node k multicasts
// to the other members of group g — Algorithm 1 generalized to an arbitrary
// placement strategy:
//
//	E_{M,k} = XOR over members t != k of  segment_k( I^t_{Need[t]} )
//
// where I^t_{Need[t]} is the intermediate value member t recovers in this
// group (node k stores Need[t], so it computed that IV in its Map stage),
// split into |Members|-1 segments assigned to the senders in ascending rank
// order. All segments are wrapped in length-headed frames padded to the
// widest one. The packet comes from the codec buffer pool.
func EncodeGroupPacket(store IVStore, g Group, k int) ([]byte, error) {
	ik, err := g.check(k)
	if err != nil {
		return nil, err
	}
	return encode(g.terms(store, ik, -1, 0, 0)), nil
}

// DecodeGroupPacket recovers node k's segment from the coded packet E_{M,u}
// received from node u in group g — Algorithm 2 generalized:
//
//	segment_u( I^k_{Need[k]} ) = E_{M,u} XOR ( XOR over t in M\{u,k} of segment_u( I^t_{Need[t]} ) )
//
// The cancellation terms are IVs node k computed locally: k stores Need[t]
// for every other member t. In a two-member group there are none and the
// result aliases packet (see decode).
func DecodeGroupPacket(store IVStore, g Group, k, u int, packet []byte) (kv.Records, error) {
	ik, iu, err := g.decoderPositions(k, u)
	if err != nil {
		return kv.Records{}, err
	}
	return decode(g.terms(store, iu, ik, 0, 0), packet)
}

// GroupPacketWidth returns the wire size of the coded packet node k sends in
// group g given the store, without building it.
func GroupPacketWidth(store IVStore, g Group, k int) int {
	return packetWidth(g.terms(store, g.Index(k), -1, 0, 0))
}

// GroupPacketChunkCount returns how many chunk packets node k multicasts in
// group g when streaming with the given chunk size: enough to cover its
// widest contributing segment, and at least one so every stream closes.
func GroupPacketChunkCount(store IVStore, g Group, k int, chunkRows int) int {
	widest := 0
	for _, seg := range g.terms(store, g.Index(k), -1, 0, 0) {
		widest = max(widest, seg.Len())
	}
	return NumChunks(widest, chunkRows)
}

// EncodeGroupPacketChunk builds chunk c of the coded packet E_{M,k} (the
// chunked, strategy-generic Algorithm 1): the XOR of chunk c of each
// contributing segment, each wrapped in a length-headed frame padded to the
// widest chunk. The concatenation of all chunks' decoded payloads equals
// the monolithic packet's decoded segment.
func EncodeGroupPacketChunk(store IVStore, g Group, k int, chunkRows, c int) ([]byte, error) {
	ik, err := g.check(k)
	if err != nil {
		return nil, err
	}
	if chunkRows <= 0 || c < 0 {
		return nil, fmt.Errorf("codec: chunk encode with chunkRows=%d chunk=%d", chunkRows, c)
	}
	return encode(g.terms(store, ik, -1, chunkRows, c)), nil
}

// DecodeGroupPacketChunk recovers node k's chunk c from the chunked coded
// packet received from node u in group g (the chunked, strategy-generic
// Algorithm 2): it cancels chunk c of every side-information segment and
// opens the remaining frame. In a two-member group the result aliases
// packet (see decode).
func DecodeGroupPacketChunk(store IVStore, g Group, k, u int, chunkRows, c int, packet []byte) (kv.Records, error) {
	ik, iu, err := g.decoderPositions(k, u)
	if err != nil {
		return kv.Records{}, err
	}
	if chunkRows <= 0 || c < 0 {
		return kv.Records{}, fmt.Errorf("codec: chunk decode with chunkRows=%d chunk=%d", chunkRows, c)
	}
	return decode(g.terms(store, iu, ik, chunkRows, c), packet)
}

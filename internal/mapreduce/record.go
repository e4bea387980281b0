package mapreduce

import (
	"hash/fnv"

	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
)

// MakeRecord builds one fixed-width record from a key and value, each
// zero-padded to its field width and truncated beyond it.
func MakeRecord(key, value []byte) []byte {
	rec := make([]byte, kv.RecordSize)
	fillRecord(rec, key, value)
	return rec
}

// fillRecord writes key and value into rec (kv.RecordSize bytes),
// zero-padding and truncating each field.
func fillRecord(rec, key, value []byte) {
	for i := range rec {
		rec[i] = 0
	}
	copy(rec[:kv.KeySize], key)
	copy(rec[kv.KeySize:], value)
}

// TrimPad strips the zero padding MakeRecord added: the slice up to the
// trailing run of 0x00 bytes. Text-valued kernels use it to recover the
// emitted key or value; binary values that may legitimately end in zero
// bytes must carry their own length.
func TrimPad(b []byte) []byte {
	end := len(b)
	for end > 0 && b[end-1] == 0 {
		end--
	}
	return b[:end]
}

// HashPartitioner maps intermediate keys to reducers by a 64-bit FNV-1a
// hash of the full fixed-width key — the framework's default. Mapper-emitted
// keys (words, service names) cluster in a sliver of the key space, where
// the sorters' range partitioner would send everything to one reducer; the
// hash spreads any key set evenly while each reducer still sees its groups
// in ascending key order.
type HashPartitioner struct {
	k int
}

// NewHashPartitioner returns a hash partitioner over k reducers.
func NewHashPartitioner(k int) HashPartitioner { return HashPartitioner{k: k} }

// NumPartitions returns K.
func (h HashPartitioner) NumPartitions() int { return h.k }

// Partition returns the reducer of the given key.
func (h HashPartitioner) Partition(key []byte) int {
	f := fnv.New64a()
	f.Write(key)
	return int(f.Sum64() % uint64(h.k))
}

var _ partition.Partitioner = HashPartitioner{}

package mapreduce

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
)

// A Kernel is a reusable, registered MapReduce program: the map/reduce pair
// plus the kernel's natural partitioner and input corpus. Kernels are what
// the equivalence harness iterates over and what cmd/codedmr exposes by
// name — registering a new kernel is all it takes to gate and run a new
// computation.
type Kernel struct {
	// Name identifies the kernel in the registry, the CLI and the harness.
	Name string
	// Doc is a one-line description.
	Doc string
	// Mapper and Reducer are the kernel's functions (Reducer nil = Identity).
	Mapper  Mapper
	Reducer Reducer
	// Part, when non-nil, builds the kernel's preferred partitioner for K
	// reducers (nil = the framework's hash partitioner).
	Part func(k int) partition.Partitioner
	// Input, when non-nil, materializes the kernel's natural input corpus
	// (nil = the TeraGen-format row-addressable generator).
	Input func(rows int64, seed uint64) kv.Records
}

// Job builds a runnable job for the kernel: K workers, replication r,
// rows input records from the kernel's corpus under seed. Callers set the
// runtime knobs (ChunkRows, MemBudget, Faults, ...) on the returned value —
// or replace its whole Spec, as long as K, Rows and Seed stay these.
func (k Kernel) Job(kk, r int, rows int64, seed uint64) Job {
	j := Job{Mapper: k.Mapper, Reducer: k.Reducer, Spec: job.Spec{K: kk, R: r, Rows: rows, Seed: seed}}
	if k.Part != nil {
		j.Part = k.Part(kk)
	}
	if k.Input != nil {
		j.Input = k.Input(rows, seed)
	}
	return j
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Kernel{}
)

// Register adds a kernel to the registry. It panics on a duplicate or
// unnamed kernel — registration is init-time wiring, not input handling.
func Register(k Kernel) {
	if k.Name == "" || k.Mapper == nil {
		panic("mapreduce: Register needs a Name and a Mapper")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[k.Name]; dup {
		panic(fmt.Sprintf("mapreduce: kernel %q registered twice", k.Name))
	}
	registry[k.Name] = k
}

// Lookup returns the named kernel.
func Lookup(name string) (Kernel, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	k, ok := registry[name]
	return k, ok
}

// Kernels returns every registered kernel sorted by name.
func Kernels() []Kernel {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]Kernel, 0, len(registry))
	for _, k := range registry {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// u64be encodes v as 8 big-endian bytes: the fixed-width partial-count
// encoding of the counting kernels. Big-endian keeps byte order equal to
// numeric order, so canonical value order is also numeric order.
func u64be(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// sumU64be totals the leading 8-byte big-endian counters of values.
func sumU64be(values [][]byte) uint64 {
	var n uint64
	for _, v := range values {
		n += binary.BigEndian.Uint64(v[:8])
	}
	return n
}

// WordCount counts word occurrences across the text corpus: the canonical
// MapReduce program. Map emits (word, 1) per word; Reduce sums the partial
// counts into a decimal total.
func WordCount() Kernel {
	return Kernel{
		Name: "wordcount",
		Doc:  "count word occurrences in the generated text corpus",
		Mapper: MapperFunc(func(rec []byte, emit Emit) {
			one := u64be(1)
			for _, w := range bytes.Fields(TrimPad(rec[kv.KeySize:])) {
				emit(w, one)
			}
		}),
		Reducer: ReducerFunc(func(key []byte, values [][]byte, emit Emit) {
			emit(key, strconv.AppendUint(nil, sumU64be(values), 10))
		}),
		Input: TextInput,
	}
}

// Grep selects the records whose value contains pattern, re-keyed by their
// original key with the Identity reducer — distributed selection over the
// TeraGen corpus, range-partitioned so output stays globally key-sorted.
func Grep(pattern string) Kernel {
	pat := []byte(pattern)
	return Kernel{
		Name: "grep",
		Doc:  fmt.Sprintf("select TeraGen records whose value contains %q", pattern),
		Mapper: MapperFunc(func(rec []byte, emit Emit) {
			if bytes.Contains(rec[kv.KeySize:], pat) {
				emit(rec[:kv.KeySize], rec[kv.KeySize:])
			}
		}),
		Part: func(k int) partition.Partitioner { return partition.NewUniform(k) },
	}
}

// InvertedIndex builds a word -> documents index over the text corpus. Map
// emits (word, docID) per word occurrence; Reduce deduplicates the sorted
// document list and renders "N:doc1,doc2,..." truncated to the value width.
func InvertedIndex() Kernel {
	return Kernel{
		Name: "invertedindex",
		Doc:  "build a word -> document-list index over the generated text corpus",
		Mapper: MapperFunc(func(rec []byte, emit Emit) {
			doc := TrimPad(rec[:kv.KeySize])
			for _, w := range bytes.Fields(TrimPad(rec[kv.KeySize:])) {
				emit(w, doc)
			}
		}),
		Reducer: ReducerFunc(func(key []byte, values [][]byte, emit Emit) {
			var docs [][]byte
			var last []byte
			for _, v := range values { // values ascend, so dedup is adjacent
				if last != nil && bytes.Equal(v, last) {
					continue
				}
				docs = append(docs, TrimPad(v))
				last = v
			}
			out := strconv.AppendInt(nil, int64(len(docs)), 10)
			out = append(out, ':')
			for i, d := range docs {
				if i > 0 {
					out = append(out, ',')
				}
				out = append(out, d...)
			}
			if len(out) > kv.ValueSize {
				out = out[:kv.ValueSize]
			}
			emit(key, out)
		}),
		Input: TextInput,
	}
}

// LogAggregation rolls the service log up per (service, level): Map re-keys
// each line as "svcN:LEVEL" carrying (1, bytes) counters; Reduce sums both
// into "n=<count> bytes=<total>".
func LogAggregation() Kernel {
	return Kernel{
		Name: "logagg",
		Doc:  "aggregate per-service request counts and byte totals from the generated log corpus",
		Mapper: MapperFunc(func(rec []byte, emit Emit) {
			f := bytes.Fields(TrimPad(rec[kv.KeySize:]))
			if len(f) != 3 {
				return
			}
			n, err := strconv.ParseUint(string(f[2]), 10, 64)
			if err != nil {
				return
			}
			key := append(append(append([]byte{}, f[1]...), ':'), f[0]...)
			emit(key, append(u64be(1), u64be(n)...))
		}),
		Reducer: ReducerFunc(func(key []byte, values [][]byte, emit Emit) {
			var count, total uint64
			for _, v := range values {
				count += binary.BigEndian.Uint64(v[:8])
				total += binary.BigEndian.Uint64(v[8:16])
			}
			emit(key, fmt.Appendf(nil, "n=%d bytes=%d", count, total))
		}),
		Input: LogInput,
	}
}

// The built-in kernels register at init so name-based consumers (the CLI,
// the harness, the fuzz target) see them without wiring.
func init() {
	Register(WordCount())
	Register(Grep("QQ"))
	Register(InvertedIndex())
	Register(LogAggregation())
}

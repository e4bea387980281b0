package coded

import (
	"runtime"
	"sync"
	"testing"

	"codedterasort/internal/engine"
	"codedterasort/internal/job"
)

// liveHeapPeak measures a cluster run's peak live heap deterministically:
// at every stage boundary of every rank it forces a collection and reads
// HeapAlloc, which is then exactly the live set — no sampler goroutine
// racing the collector's own schedule. While one rank stands at a boundary
// its peers are mid-stage, so their working buffers are counted too.
type liveHeapPeak struct {
	mu    sync.Mutex
	bytes uint64
}

func (p *liveHeapPeak) hooks() engine.Hooks {
	return func(engine.StageEvent) {
		p.mu.Lock()
		defer p.mu.Unlock()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > p.bytes {
			p.bytes = m.HeapAlloc
		}
	}
}

// TestPipelinedBoundsPeakMemory is the bounded-memory regression test for
// the streaming pipeline: at equal Rows, the chunked engine must hold a
// clearly smaller peak live heap than the monolithic one. The monolithic
// engine retains two extra full-size copies of the remote-bound data on
// every worker — the packed send buffers and the received packed payloads
// (the unpacked records alias the received buffers since the zero-copy
// Unpack) — while the pipelined engine's transient state is
// O(ChunkRows x Window) per stream.
//
// Peak measurement: see liveHeapPeak. The engines retain their buffers on
// the worker structs until Run returns, so the peak is a plateau that the
// stage boundaries see, not a spike between them.
func TestPipelinedBoundsPeakMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory regression test is slow under -short")
	}

	const k, rows = 4, 160000 // 16 MB of records cluster-wide

	measure := func(chunkRows int) uint64 {
		var peak liveHeapPeak
		cfg := cfgOf(job.Spec{K: k, R: 1, Rows: rows, Seed: 77, ChunkRows: chunkRows, Window: 4})
		cfg.Hooks = peak.hooks()
		runAll(t, cfg)
		return peak.bytes
	}

	monolithic := measure(0)
	pipelined := measure(1000)
	t.Logf("peak heap: monolithic %.1f MB, pipelined %.1f MB",
		float64(monolithic)/1e6, float64(pipelined)/1e6)
	// The structural saving is ~2 full copies of the remote-bound data
	// (about 1.5 partitions per worker at K=4, against a reduce-dominated
	// baseline); demand at least a 10% drop so the ranks' relative timing
	// cannot fake a pass. A pipeline that buffered whole streams again would
	// land at or above 1.0.
	if float64(pipelined) > 0.90*float64(monolithic) {
		t.Fatalf("pipelined peak heap %.1f MB not well below monolithic %.1f MB",
			float64(pipelined)/1e6, float64(monolithic)/1e6)
	}
}

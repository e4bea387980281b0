package coded

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"codedterasort/internal/job"
	"codedterasort/internal/kv"
	"codedterasort/internal/stats"
	"codedterasort/internal/transport"
)

// liveHeapPeak measures a cluster run's peak live heap deterministically:
// at every stage boundary of every rank it forces a collection and reads
// HeapAlloc, which is then exactly the live set — no sampler goroutine
// racing the collector's own schedule. While one rank stands at a boundary
// its peers are mid-stage, so their working buffers are counted too.
type liveHeapPeak struct {
	mu    sync.Mutex
	bytes uint64
	// beforeReduce is the peak over every boundary but the end of a Reduce.
	beforeReduce uint64
}

func (p *liveHeapPeak) hooks() Hooks {
	return func(ev StageEvent) {
		p.mu.Lock()
		defer p.mu.Unlock()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		p.bytes = max(p.bytes, m.HeapAlloc)
		if ev.Stage != stats.StageReduce {
			p.beforeReduce = max(p.beforeReduce, m.HeapAlloc)
		}
	}
}

// TestPipelinedBoundsPeakMemory is the bounded-memory regression test for
// the streaming pipeline, sampled over the whole run at equal Rows. Through
// the shuffle the chunked engine must hold a clearly smaller peak live heap
// than the monolithic one: the monolithic engine holds every packet it
// sends, whole, from Encode into the Shuffle (and the pool it recycles them
// to keeps them through the next collection), while the pipelined engine's
// send state is O(ChunkRows x Window) per stream. Over the whole run it
// must hold no more: both end on the same Reduce plateau — the files, which
// the views Map keeps hold until Reduce, the decoded remote share, and the
// output — so a receiver that kept more than the records it recovered
// would rise above the monolithic peak.
func TestPipelinedBoundsPeakMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory regression test is slow under -short")
	}

	const k, rows = 4, 160000 // 16 MB of records cluster-wide

	measure := func(chunkRows int) *liveHeapPeak {
		peak := &liveHeapPeak{}
		cfg := cfgOf(job.Spec{K: k, R: 1, Rows: rows, Seed: 77, ChunkRows: chunkRows, Window: 4})
		cfg.Hooks = peak.hooks()
		runAll(t, cfg)
		return peak
	}

	mono := measure(0)
	piped := measure(1000)
	mb := func(b uint64) float64 { return float64(b) / 1e6 }
	t.Logf("peak heap before Reduce: monolithic %.1f MB, pipelined %.1f MB; whole run: %.1f MB, %.1f MB",
		mb(mono.beforeReduce), mb(piped.beforeReduce), mb(mono.bytes), mb(piped.bytes))
	// The structural saving is the send copy of the remote-bound data
	// (about 0.75 of a file per worker at K=4, against the files and the
	// received share both engines hold); demand at least a 10% drop so the
	// ranks' relative timing cannot fake a pass. A pipeline that buffered
	// whole streams again would land at or above 1.0.
	if mb(piped.beforeReduce) > 0.90*mb(mono.beforeReduce) {
		t.Fatalf("pipelined peak heap before Reduce %.1f MB not well below monolithic %.1f MB",
			mb(piped.beforeReduce), mb(mono.beforeReduce))
	}
	// Both end on the same plateau, and where the peers stand when a rank
	// samples it moves the monolithic reading between 41.0 and 43.6 MB
	// against a pipelined 42.2-42.5, so allow 10%. A receiver that kept a
	// second copy of its decoded share (a quarter of the plateau here)
	// would exceed it.
	if mb(piped.bytes) > 1.10*mb(mono.bytes) {
		t.Fatalf("pipelined whole-run peak heap %.1f MB above monolithic %.1f MB",
			mb(piped.bytes), mb(mono.bytes))
	}
}

// TestDecodedSegmentsPinNoPadding: a receiver keeps each decoded segment
// where its packet or chunk frame arrived, but that buffer is padded to the
// group's widest segment. On zipf keys under the uniform partitioner the
// partitions, and so the segments of one group, differ widely: a member
// that kept its buffers whole would hold the group's largest share, not
// its own. Whatever the in-memory receivers hand to Reduce, in either mode,
// must be non-empty and fill at least half the buffer it lies in. The
// chunked Shuffle lists its pieces for Reduce; the monolithic one hands
// them to the reducer, so there every packet the rank received that is
// still alive once the Shuffle has ended, while the reducer is held at its
// first output block, is one Reduce kept, and the segment the rank needed
// from it must fill at least half of it.
func TestDecodedSegmentsPinNoPadding(t *testing.T) {
	spec := job.Spec{K: 4, R: 2, Rows: 40000, Seed: 9, DistName: "zipf", ChunkRows: 500}
	workers := make([]*worker, spec.K)
	check := func(rank int, c *Config) {
		c.Hooks = func(ev StageEvent) {
			if ev.Stage != stats.StageShuffle {
				return
			}
			for _, p := range workers[rank].remote {
				if b := p.Collect().Bytes(); len(b) == 0 || 2*len(b) < cap(b) {
					t.Errorf("chunked rank %d keeps %d bytes in a %d-byte buffer", rank, len(b), cap(b))
				}
			}
		}
	}
	capture := func(w *worker) stats.Clock {
		workers[w.rank] = w
		return stats.NewWallClock()
	}
	runWorkers(t, cfgOf(spec), check, capture, nil)

	spec.ChunkRows = 0
	conns := make([]*receiptConn, spec.K)
	var kept atomic.Int64
	check = func(rank int, c *Config) {
		checked := make(chan struct{})
		c.OutputSink = func(kv.Records) error { <-checked; return nil }
		c.Hooks = func(ev StageEvent) {
			if ev.Stage != stats.StageShuffle {
				return
			}
			defer close(checked)
			w := workers[rank]
			runtime.GC()
			for _, got := range conns[rank].got {
				if got.buf.Value() == nil {
					continue
				}
				kept.Add(1)
				g := w.myGroups[w.groupIdx[int64(got.tag&(1<<48-1))]]
				n := sentSegment(workers[got.root], rank, g).Len() * kv.RecordSize
				if n == 0 || 2*n < got.size {
					t.Errorf("monolithic rank %d keeps %d bytes in a %d-byte buffer from %d", rank, n, got.size, got.root)
				}
			}
		}
	}
	runWorkers(t, cfgOf(spec), check, capture, func(rank int, c transport.Conn) transport.Conn {
		conns[rank] = &receiptConn{Conn: c}
		return conns[rank]
	})
	if kept.Load() == 0 {
		t.Fatalf("no monolithic rank kept a packet it received: nothing checked")
	}
}

// receiptConn notes each multicast packet its rank receives: its root,
// tag and size, and a weak pointer that reads nil once nothing holds the
// packet.
type receiptConn struct {
	transport.Conn
	got []receipt // written by the rank's receivers, read once they are done
	mu  sync.Mutex
}

type receipt struct {
	root, size int
	tag        transport.Tag
	buf        weak.Pointer[byte]
}

func (c *receiptConn) Recv(from int, tag transport.Tag) ([]byte, error) {
	p, err := c.Conn.Recv(from, tag)
	if err == nil && uint8(tag>>56) == tagMulticast && len(p) > 0 {
		c.mu.Lock()
		c.got = append(c.got, receipt{root: int(uint8(tag >> 48)), size: cap(p), tag: tag, buf: weak.Make(&p[0])})
		c.mu.Unlock()
	}
	return p, err
}

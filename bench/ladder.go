package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
)

// The layer ladder: one probe per layer, each timing from outside a
// function the engines call on their hot path, all on the uncoded_mem
// shape (same rows, seed, K). Printed as one MB/s table beside the
// end-to-end rates, it makes the gap between adjacent layers a number.
// Each probe lives in its own file and touches one package, so a change
// that deletes a kernel breaks one probe, not the benchmark.

// probeReps is how often a probe repeats its operation; the median is
// reported. (A variable so the smoke test can run each operation once.)
var probeReps = 5

// shape is the input every probe works on, built once.
type shape struct {
	c   config
	gen *kv.Generator
	// file is rank 0's input file: the first rows/K rows.
	file kv.Records
	// part is reducer partition 0 of the whole input, in input order.
	part kv.Records
	// sorted is part after the kv probe sorted it.
	sorted kv.Records
	tmp    string
}

func newShape(c config) (*shape, error) {
	s := &shape{c: c, gen: kv.NewGenerator(c.seed, kv.DistUniform)}
	s.file = s.gen.Generate(0, c.rows/ranks)
	bound := partition.UniformBounds(ranks)[0]
	err := s.gen.GenerateBlocks(0, c.rows, 1<<14, func(b kv.Records) error {
		for i := 0; i < b.Len(); i++ {
			if bytes.Compare(b.Key(i), bound) < 0 {
				s.part = s.part.Append(b.Record(i))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(c.outDir, "tmp"), 0o755); err != nil {
		return nil, err
	}
	if s.tmp, err = os.MkdirTemp(filepath.Join(c.outDir, "tmp"), "ladder-"); err != nil {
		return nil, err
	}
	return s, nil
}

// timeOp returns the median wall time of reps runs of op, each after an
// untimed prep (nil = none) and a collection.
func timeOp(reps int, prep func(), op func() error) (float64, error) {
	var ts []float64
	for i := 0; i < reps; i++ {
		if prep != nil {
			prep()
		}
		runtime.GC()
		t0 := time.Now()
		if err := op(); err != nil {
			return 0, err
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// mbPerS is the rate of moving n bytes in s seconds, in MB/s (1 MB = 1e6 B).
func mbPerS(n int64, s float64) float64 { return float64(n) / 1e6 / s }

// probe is one rung's measurement: it returns metrics by name.
type probe struct {
	name string
	run  func(*shape) (map[string]float64, error)
}

var probes = []probe{
	{"kv", probeKV},
	{"partition", probePartition},
	{"codec", probeCodec},
	{"extsort", probeExtsort},
	{"transport", probeTransport},
	{"verify", probeVerify},
}

// runLadder runs every probe under a root "ladder" span, one child span
// per probe, and returns the probes' metrics.
func runLadder(c config, tr *tracer) (map[string]float64, error) {
	t0 := time.Now()
	root := tr.add(0, 0, "ladder", "ladder", t0, t0, nil)
	defer func() { tr.setEnd(root, time.Now()) }()
	s, err := newShape(c)
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	defer os.RemoveAll(s.tmp)
	tr.add(root, 0, "shape", "ladder", t0, time.Now(), nil)
	out := map[string]float64{}
	for _, p := range probes {
		p0 := time.Now()
		got, err := p.run(s)
		if err != nil {
			return nil, fmt.Errorf("ladder: %s probe: %w", p.name, err)
		}
		args := map[string]any{}
		for k, v := range got {
			out[k] = v
			args[k] = v
		}
		tr.add(root, 0, "probe "+p.name, "ladder", p0, time.Now(), args)
	}
	pred, err := predictCapSpeedup(c, out)
	if err != nil {
		return nil, fmt.Errorf("ladder: model: %w", err)
	}
	out["model.cap_speedup_pred"] = pred
	return out, nil
}

package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"codedterasort/internal/extsort"
	"codedterasort/internal/kv"
)

// probeExtsort times the out-of-core sorter on one reducer partition the
// way uncoded_spill's ranks drive it (half of the 1/8-share budget for the
// sorter, sequential run sorting): run generation (Append until the input
// is exhausted: radix-sorted runs, spill writes) and the merge
// (DrainSorted: spill reads, loser tree with offset-value codes), timed
// separately. The spill amplification and the OVC-decided comparison count
// depend only on the input, so they repeat exactly for a fixed seed.
func probeExtsort(s *shape) (map[string]float64, error) {
	var rungen, merge []float64
	var out extsort.Output
	for rep := 0; rep < probeReps; rep++ {
		sorter, err := extsort.NewSorter(s.tmp, spillBudget(s.c.rows)/2)
		if err != nil {
			return nil, err
		}
		sorter.SetParallelism(1)
		runtime.GC()
		t0 := time.Now()
		err = s.part.ForEachBlock(sorter.BlockRows(), sorter.Append)
		t1 := time.Now()
		var last []byte
		if err == nil {
			out, err = extsort.DrainSorted(sorter, sorter.BlockRows(), func(b kv.Records) error {
				if b.Len() == 0 {
					return nil
				}
				if bytes.Compare(last, b.MinKey()) > 0 || !b.IsSorted() {
					return fmt.Errorf("merged order is not ascending")
				}
				last = append(last[:0], b.MaxKey()...)
				return nil
			})
		}
		t2 := time.Now()
		if cerr := sorter.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if out.Rows != int64(s.part.Len()) || out.Checksum != s.part.Checksum() {
			return nil, fmt.Errorf("merge produced %d rows, want the %d of the input", out.Rows, s.part.Len())
		}
		rungen = append(rungen, t1.Sub(t0).Seconds())
		merge = append(merge, t2.Sub(t1).Seconds())
	}
	size := int64(s.part.Size())
	return map[string]float64{
		"extsort.rungen_mb_s": mbPerS(size, median(rungen)),
		"extsort.merge_mb_s":  mbPerS(size, median(merge)),
		"extsort.spill_amp":   float64(out.SpilledDiskBytes) / float64(size),
		"extsort.ovc_decided": float64(out.OVCDecided),
	}, nil
}

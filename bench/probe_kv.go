package main

import "fmt"

// probeKV times the two kv kernels every job runs: input generation (what
// placement costs, one rank's file) and the in-place MSD radix sort of
// Reduce (one reducer partition, restored untimed before each run).
func probeKV(s *shape) (map[string]float64, error) {
	rows := int64(s.file.Len())
	gen, err := timeOp(probeReps, nil, func() error {
		if got := s.gen.Generate(0, rows); got.Len() != int(rows) {
			return fmt.Errorf("generated %d rows, want %d", got.Len(), rows)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	s.sorted = s.part.Clone()
	sort, err := timeOp(probeReps, func() { copy(s.sorted.Bytes(), s.part.Bytes()) }, func() error {
		s.sorted.SortRadixMSD(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !s.sorted.IsSorted() || s.sorted.Checksum() != s.part.Checksum() {
		return nil, fmt.Errorf("SortRadixMSD output is not the sorted input")
	}
	return map[string]float64{
		"kv.gen_mb_s":  mbPerS(int64(s.file.Size()), gen),
		"kv.sort_mb_s": mbPerS(int64(s.part.Size()), sort),
	}, nil
}

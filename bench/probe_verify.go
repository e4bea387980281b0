package main

import (
	"fmt"

	"codedterasort/internal/kv"
	"codedterasort/internal/partition"
	"codedterasort/internal/verify"
)

// probeVerify times what RunLocal does after the ranks finish: describing
// the whole generated input (single-threaded regeneration) and streaming a
// sorted partition through the order-and-membership checker.
func probeVerify(s *shape) (map[string]float64, error) {
	describe, err := timeOp(probeReps, nil, func() error {
		if in := verify.DescribeGenerated(s.gen, s.c.rows); in.Rows != s.c.rows {
			return fmt.Errorf("described %d rows, want %d", in.Rows, s.c.rows)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s.sorted.Len() == 0 {
		return nil, fmt.Errorf("no sorted partition (the kv probe runs first)")
	}
	check, err := timeOp(probeReps, nil, func() error {
		c := verify.NewPartitionChecker(partition.NewUniform(ranks), 0)
		if err := c.Feed(s.sorted); err != nil {
			return err
		}
		if c.Summary().Rows != int64(s.sorted.Len()) {
			return fmt.Errorf("checker saw %d rows, want %d", c.Summary().Rows, s.sorted.Len())
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"verify.describe_mb_s": mbPerS(s.c.rows*kv.RecordSize, describe),
		"verify.check_mb_s":    mbPerS(int64(s.sorted.Size()), check),
	}, nil
}

package main

import (
	"codedterasort/internal/cluster"
	"codedterasort/internal/kv"
	"codedterasort/internal/model"
	"codedterasort/internal/simnet"
)

// predictedShuffleBytes is what the tradeoff curve L(r) = (1/r)(1 - r/K)
// says a job shuffles: input bytes x load, printed beside the measured
// cluster.shuffle_bytes so the prediction error is a number.
func predictedShuffleBytes(spec cluster.Spec) int64 {
	coded := spec.Algorithm == cluster.AlgCoded
	r := 1.0
	if coded {
		r = float64(spec.R)
	}
	return model.ShuffledBytes(spec.Rows*kv.RecordSize, spec.K, r, coded)
}

// predictCapSpeedup is simnet's uncoded/coded total-time ratio for the
// *_cap pair, with the cost model's per-GB constants replaced by the rates
// the ladder just measured on this host: what the model says cap_speedup
// should be if the engines ran at kernel speed.
func predictCapSpeedup(c config, rates map[string]float64) (float64, error) {
	const r = 2
	secPerGB := func(mbPerS float64) float64 { return 1e3 / mbPerS }
	cm := simnet.CostModel{
		RateMbps: capMbps,
		// The shaped multicast is r serial unicasts: 1 + Gamma*log2(r) = r.
		Gamma:        1,
		MapSecPerGB:  secPerGB(rates["partition.split_mb_s"]),
		PackSecPerGB: secPerGB(rates["codec.pack_mb_s"]),
		// The model charges coding per byte XORed, r segments per packet
		// byte; the probes measure per packet byte.
		EncodeSecPerGB: secPerGB(rates["codec.encode_mb_s"]) / r,
		DecodeSecPerGB: secPerGB(rates["codec.decode_mb_s"]) / r,
		ReduceSecPerGB: secPerGB(rates["kv.sort_mb_s"]),
	}
	uncoded, _, err := simnet.Simulate(simnet.Workload{Rows: c.rows, K: ranks}, cm)
	if err != nil {
		return 0, err
	}
	coded, _, err := simnet.Simulate(simnet.Workload{Rows: c.rows, K: ranks, R: r, Coded: true}, cm)
	if err != nil {
		return 0, err
	}
	return uncoded.Total().Seconds() / coded.Total().Seconds(), nil
}

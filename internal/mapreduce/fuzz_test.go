package mapreduce_test

import (
	"bytes"
	"testing"

	"codedterasort/internal/kv"
	"codedterasort/internal/mapreduce"
)

// FuzzMapReduceKernels drives the determinism contract with adversarial
// inputs: arbitrary bytes chopped into records, arbitrary (K, R) inside
// the legal range, any registered kernel — coded and uncoded execution
// (monolithic and chunked) must reproduce the Sequential oracle byte for
// byte.
func FuzzMapReduceKernels(f *testing.F) {
	f.Add([]byte("INFO svc1 300\nWARN svc2 40 the word of the word"), uint8(4), uint8(2), uint8(0))
	f.Add(bytes.Repeat([]byte("QQx"), 120), uint8(2), uint8(2), uint8(1))
	f.Add([]byte{0, 1, 2, 0xff, 'Q', 'Q'}, uint8(5), uint8(3), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, kSel, rSel, kernSel uint8) {
		if len(data) == 0 {
			t.Skip("no records")
		}
		k := 2 + int(kSel)%4     // K in [2,5]
		r := int(rSel) % (k + 1) // R in [0,K]
		kernels := mapreduce.Kernels()
		kern := kernels[int(kernSel)%len(kernels)]
		input := fuzzRecords(data)
		job := kern.Job(k, r, int64(input.Len()), 1)
		job.Input = input
		want, err := mapreduce.Sequential(job)
		if err != nil {
			t.Fatalf("Sequential: %v", err)
		}
		for _, chunk := range []int{0, 7} {
			job := job
			job.ChunkRows = chunk
			rep, err := mapreduce.RunLocal(job)
			if err != nil {
				t.Fatalf("RunLocal(%s, K=%d, R=%d, chunk=%d): %v", kern.Name, k, r, chunk, err)
			}
			for rank := range want {
				if !bytes.Equal(rep.Workers[rank].Output.Bytes(), want[rank].Bytes()) {
					t.Fatalf("%s K=%d R=%d chunk=%d: rank %d output diverges from sequential oracle",
						kern.Name, k, r, chunk, rank)
				}
			}
		}
	})
}

// fuzzRecords chops data into fixed-width records (last one zero-padded),
// capped at 64 rows to bound fuzz iteration cost.
func fuzzRecords(data []byte) kv.Records {
	rows := (len(data) + kv.RecordSize - 1) / kv.RecordSize
	if rows > 64 {
		rows, data = 64, data[:64*kv.RecordSize]
	}
	out := kv.MakeRecords(rows)
	var rec [kv.RecordSize]byte
	for i := 0; i < rows; i++ {
		for j := range rec {
			rec[j] = 0
		}
		copy(rec[:], data[i*kv.RecordSize:])
		out = out.Append(rec[:])
	}
	return out
}

package cluster

import "testing"

// TestParallelismSpecValidation: negative parallelism is rejected at the
// spec boundary, before a worker ever resolves it.
func TestParallelismSpecValidation(t *testing.T) {
	if err := (Spec{Algorithm: AlgTeraSort, K: 2, Rows: 10, Parallelism: -1}).Validate(); err == nil {
		t.Fatalf("negative parallelism accepted")
	}
	if err := RunWorker("127.0.0.1:0", WorkerOptions{Parallelism: -1}); err == nil {
		t.Fatalf("negative worker parallelism override accepted")
	}
}

// TestPipelinedSpecValidation: negative pipeline knobs are rejected.
func TestPipelinedSpecValidation(t *testing.T) {
	if err := (Spec{Algorithm: AlgTeraSort, K: 2, Rows: 10, ChunkRows: -1}).Validate(); err == nil {
		t.Fatalf("negative chunk rows accepted")
	}
	if err := (Spec{Algorithm: AlgTeraSort, K: 2, Rows: 10, Window: -1}).Validate(); err == nil {
		t.Fatalf("negative window accepted")
	}
}

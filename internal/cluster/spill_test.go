package cluster

import (
	"os"
	"testing"

	"codedterasort/internal/extsort"
	"codedterasort/internal/kv"
)

// writeDiskInput writes input as the K-part teragen -disk layout and
// returns the directory.
func writeDiskInput(t *testing.T, input kv.Records, k int) string {
	t.Helper()
	dir := t.TempDir()
	bounds := kv.SplitRows(int64(input.Len()), k)
	for i := 0; i < k; i++ {
		part := input.Slice(int(bounds[i]), int(bounds[i+1]))
		if err := os.WriteFile(extsort.PartFile(dir, i), part.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestInputDirCodedRejected: the disk-input path is TeraSort-only.
func TestInputDirCodedRejected(t *testing.T) {
	err := (Spec{Algorithm: AlgCoded, K: 3, R: 2, Rows: 10, InputDir: "x"}).Validate()
	if err == nil {
		t.Fatal("coded input dir accepted")
	}
	if err := (Spec{Algorithm: AlgTeraSort, K: 3, Rows: 10, MemBudget: -1}).Validate(); err == nil {
		t.Fatal("negative budget accepted")
	}
}

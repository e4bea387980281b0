package flags

import (
	"reflect"
	"testing"

	"codedterasort/internal/cluster"
	"codedterasort/internal/coded"
	"codedterasort/internal/job"
	"codedterasort/internal/mapreduce"
	"codedterasort/internal/service"
)

// TestKnobsDeclaredOnce is the "one job description" property as a test:
// every layer that carries a job carries job.Spec itself, so none of them
// may declare a field of its own under a job.Spec field's name — that is
// how a knob came to be copied through six structs. Adding a policy knob
// touches job.Spec, its Resolve and one flag line; this test fails the
// change that mirrors it anywhere else. It lives here because cmd/internal
// is the one place that can import every layer, this package included.
func TestKnobsDeclaredOnce(t *testing.T) {
	knobs := map[string]bool{}
	spec := reflect.TypeOf(job.Spec{})
	for i := 0; i < spec.NumField(); i++ {
		knobs[spec.Field(i).Name] = true
	}
	for _, knob := range []string{"ChunkRows", "Window", "MemBudget", "SpillDir", "Parallelism",
		"Partitioning", "SampleSize", "Splitters", "RateMbps", "PerMessage", "StragglerFactor",
		"StragglerRank", "MaxAttempts", "StageDeadline"} {
		if !knobs[knob] {
			t.Fatalf("job.Spec no longer declares %s", knob)
		}
	}
	// The layers that carry a job must carry the spec itself; the option
	// structs beside them must not grow a knob either.
	carriers := []any{coded.Config{}, mapreduce.Job{}, Job{}, service.SubmitRequest{}}
	for i, v := range append(carriers, job.Local{}, cluster.Options{}, cluster.WorkerOptions{}) {
		typ := reflect.TypeOf(v)
		holdsSpec := false
		for f := range typ.NumField() {
			field := typ.Field(f)
			if field.Type == spec || field.Type == reflect.TypeOf(&job.Resolved{}) {
				holdsSpec = true
				continue
			}
			// WorkerOptions.Parallelism is the per-node override of the
			// distributed value, not a second declaration of the job's.
			if knobs[field.Name] && !(typ == reflect.TypeOf(cluster.WorkerOptions{}) && field.Name == "Parallelism") {
				t.Errorf("%v declares %s, which job.Spec already declares", typ, field.Name)
			}
		}
		if i < len(carriers) && !holdsSpec {
			t.Errorf("%v does not carry a job.Spec", typ)
		}
	}
}

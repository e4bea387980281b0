package service

import "slices"

// jobQueue holds the admitted jobs in submission order.
type jobQueue []*job

// best returns the job to dispatch next among those eligible passes — the
// highest tenant priority, first submitted within a priority — or nil
// when none qualifies. The dispatcher skips jobs whose tenant is at its
// running cap; they keep their place.
func (q jobQueue) best(eligible func(*job) bool) *job {
	var best *job
	for _, j := range q {
		if eligible(j) && (best == nil || j.priority > best.priority) {
			best = j
		}
	}
	return best
}

// remove takes a dispatched job out of the queue.
func (q *jobQueue) remove(j *job) {
	i := slices.Index(*q, j)
	*q = slices.Delete(*q, i, i+1)
}

package service

import "slices"

// jobQueue is a list of jobs in submission order: the queue of admitted
// jobs, and the set of running ones.
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

// count returns how many of the jobs are the named tenant's.
func (q jobQueue) count(tenant string) int {
	n := 0
	for _, j := range q {
		if j.tenant == tenant {
			n++
		}
	}
	return n
}

// remove takes a job out of the list.
func (q *jobQueue) remove(j *job) {
	i := slices.Index(*q, j)
	*q = slices.Delete(*q, i, i+1)
}

package service

import (
	"errors"
	"fmt"
	"sync"
)

// ErrBusy is returned by Submit when the job's run-queue backlog is full.
// HTTP maps it to 503 so closed-loop clients back off and retry.
var ErrBusy = errors.New("service: run queue full")

// runQueue is the service's one run queue. Admitted jobs wait in
// per-tenant backlogs, each bounded at cap jobs; with tenancy off every
// job shares one backlog. Config.Runners goroutines each pop the next job
// whenever they free: the head of the one backlog with tenancy off,
// otherwise the pick of a deficit-round-robin scan across the tenants, so
// tenants with backlogs share the runners in proportion to rounds, not
// arrival rate. Join-the-shortest-queue dispatch is how separate
// dispatchers approximate one central queue; a service with a single
// dispatcher can hold that queue itself.
type runQueue struct {
	cap     int
	quantum int64 // DRR increment in tuples per visit; 0 with tenancy off

	mu       sync.Mutex
	nonEmpty sync.Cond // signalled by push and close
	backlogs map[string]*backlog
	ring     []*backlog // DRR visit order; grows as tenants appear
	rr       int        // ring position the next scan starts from
	depth    int        // jobs in every backlog, cancelled ones not yet skipped included
	peak     int
	closed   bool
}

// backlog is one tenant's waiting jobs and its DRR deficit.
type backlog struct {
	jobs    []*Job
	deficit int64
}

func newRunQueue(cap int, quantum int64) *runQueue {
	q := &runQueue{cap: cap, quantum: quantum, backlogs: make(map[string]*backlog)}
	q.nonEmpty.L = &q.mu
	return q
}

// push appends an admitted job to its tenant's backlog, failing with
// ErrBusy when that backlog is full or the queue is closed.
func (q *runQueue) push(j *Job) error {
	key := ""
	if q.quantum > 0 {
		key = j.tenant
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return fmt.Errorf("%w: service closed", ErrBusy)
	}
	b := q.backlogs[key]
	if b == nil {
		b = &backlog{}
		q.backlogs[key] = b
		q.ring = append(q.ring, b)
	}
	if len(b.jobs) >= q.cap {
		return fmt.Errorf("%w: backlog of tenant %q holds %d jobs", ErrBusy, key, q.cap)
	}
	b.jobs = append(b.jobs, j)
	q.depth++
	q.peak = max(q.peak, q.depth)
	q.nonEmpty.Signal()
	return nil
}

// pop blocks until a job is ready to run and returns it. Once the queue
// is closed, pop still returns every job left in it, then nil.
func (q *runQueue) pop() *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if j := q.next(); j != nil {
			return j
		}
		if q.closed {
			return nil
		}
		q.nonEmpty.Wait()
	}
}

// next removes and returns the job to run next, or nil when every
// backlog is empty; jobs cancelled while queued are dropped on the way.
// With tenancy off it is the one backlog's head. Otherwise each visit to
// a backlogged tenant grows its deficit by one quantum, and the head job
// runs once the deficit covers its tuple total, so big jobs wait
// proportionally more rounds and light tenants slip between them.
// Callers hold q.mu.
func (q *runQueue) next() *Job {
	for {
		backlogged := false
		for range q.ring {
			// rr is reduced only here, so after serving the last tenant of
			// the ring it points at a tenant appended since.
			q.rr %= len(q.ring)
			b := q.ring[q.rr]
			q.rr++
			for len(b.jobs) > 0 && b.jobs[0].stateNow() != StateQueued {
				q.shift(b)
			}
			if len(b.jobs) == 0 {
				b.deficit = 0
				continue
			}
			backlogged = true
			j := b.jobs[0]
			if q.quantum > 0 {
				if b.deficit < j.Total {
					b.deficit += q.quantum
				}
				if b.deficit < j.Total {
					continue
				}
				b.deficit -= j.Total
			}
			q.shift(b)
			if len(b.jobs) == 0 {
				b.deficit = 0
			}
			return j
		}
		if !backlogged {
			return nil
		}
	}
}

// shift drops a backlog's head. Callers hold q.mu.
func (q *runQueue) shift(b *backlog) {
	b.jobs[0] = nil
	b.jobs = b.jobs[1:]
	q.depth--
}

// close stops admission and wakes every runner, so they drain what is
// queued and exit.
func (q *runQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.nonEmpty.Broadcast()
}

// QueueStats is the run queue's row in /v2/stats.
type QueueStats struct {
	// Depth counts the jobs in the backlogs, a job cancelled while queued
	// included until a runner skips it; Peak is its high-water mark.
	Depth int `json:"depth"`
	Peak  int `json:"peak"`
	// Runners is the number of jobs the service runs at once.
	Runners int `json:"runners"`
}

// queued returns the length of a tenant's backlog.
func (q *runQueue) queued(tenant string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if b := q.backlogs[tenant]; b != nil {
		return len(b.jobs)
	}
	return 0
}

// stats snapshots the depth counters; the caller fills Runners.
func (q *runQueue) stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return QueueStats{Depth: q.depth, Peak: q.peak}
}

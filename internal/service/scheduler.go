package service

import (
	"errors"
	"sync"
	"sync/atomic"
)

// ErrBusy is returned by Submit when every pool queue is full. HTTP maps
// it to 503 so closed-loop clients back off and retry.
var ErrBusy = errors.New("service: all worker queues are full")

// Scheduler is a fixed fleet of worker pools, each a single goroutine
// draining its own bounded queue. Incoming jobs are dispatched
// join-the-shortest-queue: the submitter scans the instantaneous queue
// depths and enqueues on a minimum, with a rotating scan offset so ties do
// not all land on pool 0. JSQ keeps the pool depths tightly clustered
// under general arrivals — the stability and convergence-rate results of
// Abramov and Ma & Maguluri — which the service test asserts as a ≤ 2×
// max/mean skew bound.
type Scheduler struct {
	queues     []chan *Job
	dispatched []atomic.Int64
	completed  []atomic.Int64
	peak       []atomic.Int64
	offset     atomic.Uint64
	wg         sync.WaitGroup

	closeOnce sync.Once
}

// NewScheduler starts pools worker goroutines, each with a queue bounded
// at queueCap, running run for every dispatched job.
func NewScheduler(pools, queueCap int, run func(pool int, j *Job)) *Scheduler {
	if pools <= 0 {
		pools = 1
	}
	if queueCap <= 0 {
		queueCap = 1
	}
	s := &Scheduler{
		queues:     make([]chan *Job, pools),
		dispatched: make([]atomic.Int64, pools),
		completed:  make([]atomic.Int64, pools),
		peak:       make([]atomic.Int64, pools),
	}
	for i := range s.queues {
		s.queues[i] = make(chan *Job, queueCap)
		s.wg.Add(1)
		go func(pool int) {
			defer s.wg.Done()
			for j := range s.queues[pool] {
				run(pool, j)
				s.completed[pool].Add(1)
			}
		}(i)
	}
	return s
}

// Pools returns the fleet size.
func (s *Scheduler) Pools() int { return len(s.queues) }

// Submit dispatches j join-the-shortest-queue and returns the chosen pool.
// The depth metric is dispatched − completed — jobs queued plus the job in
// service — so an idle pool always beats a pool grinding a long job even
// when both queues are empty. If the chosen queue fills between the scan
// and the send (another submitter won the slot), the scan retries once per
// pool before giving up with ErrBusy.
func (s *Scheduler) Submit(j *Job) (int, error) {
	for attempt := 0; attempt <= len(s.queues); attempt++ {
		best, bestDepth := -1, int64(^uint64(0)>>1)
		off := int(s.offset.Add(1) % uint64(len(s.queues)))
		for i := range s.queues {
			k := (i + off) % len(s.queues)
			if d := s.dispatched[k].Load() - s.completed[k].Load(); d < bestDepth {
				best, bestDepth = k, d
			}
		}
		j.setPool(best)
		// Count the dispatch before the send: if the worker dequeues and
		// completes the job first, a depth read between send and a late
		// Add would go negative and herd concurrent submitters here.
		s.dispatched[best].Add(1)
		select {
		case s.queues[best] <- j:
			s.notePeak(best, len(s.queues[best]))
			return best, nil
		default:
			// Lost the race for the last slot; undo and rescan.
			s.dispatched[best].Add(-1)
		}
	}
	return 0, ErrBusy
}

func (s *Scheduler) notePeak(pool, depth int) {
	for {
		cur := s.peak[pool].Load()
		if int64(depth) <= cur || s.peak[pool].CompareAndSwap(cur, int64(depth)) {
			return
		}
	}
}

// PoolStats is one pool's row in /v2/stats.
type PoolStats struct {
	Depth      int   `json:"depth"`
	Peak       int64 `json:"peak"`
	Dispatched int64 `json:"dispatched"`
	Completed  int64 `json:"completed"`
}

// Stats snapshots every pool.
func (s *Scheduler) Stats() []PoolStats {
	out := make([]PoolStats, len(s.queues))
	for i := range s.queues {
		out[i] = PoolStats{
			Depth:      len(s.queues[i]),
			Peak:       s.peak[i].Load(),
			Dispatched: s.dispatched[i].Load(),
			Completed:  s.completed[i].Load(),
		}
	}
	return out
}

// Close stops accepting work and waits for queued jobs to drain. Submit
// must not be called after Close.
func (s *Scheduler) Close() {
	s.closeOnce.Do(func() {
		for _, q := range s.queues {
			close(q)
		}
	})
	s.wg.Wait()
}

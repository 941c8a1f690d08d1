package cluster

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"spm/internal/check"
	"spm/internal/service"
)

// Defaults for the steal/speculate supervisor and the event watch.
const (
	// DefaultStealInterval is the supervisor cadence: how often the
	// coordinator re-evaluates stragglers and idle capacity.
	DefaultStealInterval = 50 * time.Millisecond
	// eventsIntervalMS is the SSE progress cadence, in milliseconds, the
	// watcher asks a node for — fine enough that the chunk cursor driving
	// steal decisions is fresh, coarse enough to stay cheap.
	eventsIntervalMS = "20"
	// stealMinRemaining is the smallest remaining tuple range worth
	// stealing; below it the cancel/resubmit round-trips cost more than
	// the sweep.
	stealMinRemaining = 16
)

// flight is one shard attempt in flight on one node, tracked so the
// supervisor can watch its chunk cursor and intervene. The cursor comes
// from the node's SSE progress events (poll snapshots on fallback);
// lost/evicted/shrink are verdicts the supervisor or a rival's completion
// passes to the flight's watcher. A shrink is acted on when the job
// reaches its cancelled state; lost and evicted also abort the flight's
// context, so the watcher returns even if the node never answers again.
type flight struct {
	node    string
	id      string
	sh      check.Shard
	started time.Time
	// ctx scopes every request that follows the job (event stream and
	// status polls); it derives from the run's stop context, and abort
	// cancels it.
	ctx   context.Context
	abort context.CancelFunc
	// shrunk marks the re-run front of a committed steal. It is never
	// stolen from again — each steal restarts the front from scratch, so
	// repeated steals from one straggler turn into a chain of restarts
	// that is slower than just letting it finish. A slow shrunk front is
	// rescued by speculation (duplicate on a fast node, first wins)
	// instead.
	shrunk bool

	// spec marks a speculative twin; cleared (promoted to primary) if the
	// primary attempt dies while this one is still running.
	spec atomic.Bool
	// lost marks a speculative race this flight did not win; its job is
	// cancelled and its outcome discarded.
	lost atomic.Bool
	// evicted marks a flight whose node retired mid-run; its job is
	// cancelled and the shard requeued without charging its retry budget.
	evicted atomic.Bool

	// done/total mirror the node's last reported ProgressInfo.
	done  atomic.Int64
	total atomic.Int64

	mu     sync.Mutex
	intent *splitIntent
	used   bool
}

// splitIntent is a pending steal: the supervisor has asked the node to
// cancel, and upon observing the cancellation the watcher commits the
// split — front re-runs on the same node, back goes to the pool. If the
// job finishes before the cancel lands, the intent is simply dropped.
type splitIntent struct {
	front, back check.Shard
}

func newFlight(stopCtx context.Context, node, id string, e pendingEntry) *flight {
	f := &flight{node: node, id: id, sh: e.sh, started: time.Now(), shrunk: e.shrunk}
	f.ctx, f.abort = context.WithCancel(stopCtx)
	f.spec.Store(e.speculative)
	return f
}

// observe folds one status snapshot into the cursor.
func (f *flight) observe(st *service.JobStatus) {
	f.done.Store(st.Progress.Done)
	f.total.Store(st.Progress.Total)
}

// cursor converts the job-relative progress counter into tuples completed
// within the shard. Every job, maximal or not, sweeps its shard once, so
// Total is Count; the scale and the clamp keep the cursor conservative
// should a node report a larger Total or a counter past it.
func (f *flight) cursor() int64 {
	done, total := f.done.Load(), f.total.Load()
	if done <= 0 {
		return 0
	}
	span := f.sh.Count
	if total > span {
		done = done * span / total
	}
	if done > span {
		done = span
	}
	return done
}

// projected estimates how long the flight needs to finish at its observed
// rate. ok is false while the flight has made no measurable progress.
func (f *flight) projected(now time.Time) (time.Duration, bool) {
	done := f.cursor()
	elapsed := now.Sub(f.started)
	if done <= 0 || elapsed <= 0 {
		return 0, false
	}
	rem := f.sh.Count - done
	return time.Duration(float64(elapsed) / float64(done) * float64(rem)), true
}

// gone reports that the flight's outcome is already decided against it.
func (f *flight) gone() bool { return f.lost.Load() || f.evicted.Load() }

func (f *flight) hasShrink() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.intent != nil
}

func (f *flight) setShrink(front, back check.Shard) {
	f.mu.Lock()
	if f.intent == nil {
		f.intent = &splitIntent{front: front, back: back}
	}
	f.mu.Unlock()
}

// takeShrink hands the intent to the watcher exactly once.
func (f *flight) takeShrink() (splitIntent, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.intent == nil || f.used {
		return splitIntent{}, false
	}
	f.used = true
	return *f.intent, true
}

// watch follows the job's SSE event stream (GET /v2/jobs/{id}/events):
// progress events keep the flight's chunk cursor fresh for the
// supervisor, and the terminal event ends the watch the moment the node
// finishes. Any stream failure — setup, disconnect, a node that cannot
// stream — falls back to the poll loop, which reports the same terminal
// states (and still feeds the cursor, just coarser).
func (r *runner) watch(node, id string, f *flight) (*service.Result, error) {
	httpReq, err := http.NewRequestWithContext(f.ctx, http.MethodGet,
		node+"/v2/jobs/"+id+"/events?interval_ms="+eventsIntervalMS, nil)
	if err != nil {
		return r.poll(node, id, f)
	}
	resp, err := r.c.stream.Do(httpReq)
	if err != nil {
		if f.ctx.Err() != nil {
			return nil, r.abandoned(f)
		}
		return r.poll(node, id, f)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return r.poll(node, id, f)
	}
	sc := bufio.NewScanner(resp.Body)
	// A done event carries the full result payload; let the line buffer
	// grow to the same bound the poll path enforces. It starts small
	// because every shard attempt allocates one and most events are a
	// progress line of well under a kilobyte.
	sc.Buffer(make([]byte, 4<<10), maxResponseBytes+1)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			if event != "progress" && event != "done" {
				continue
			}
			var st service.JobStatus
			if json.Unmarshal([]byte(strings.TrimSpace(line[len("data:"):])), &st) != nil {
				continue
			}
			f.observe(&st)
			if res, err, terminal := r.terminalStatus(node, id, &st, f); terminal {
				return res, err
			}
		}
	}
	// Stream ended without a terminal event: the flight was abandoned, the
	// node restarted, the connection dropped, or the line limit tripped.
	// Unless abandoned, the job may still be running.
	if f.ctx.Err() != nil {
		return nil, r.abandoned(f)
	}
	return r.poll(node, id, f)
}

// supervise is the steal/speculate control loop: every StealInterval it
// sizes up the in-flight shards against idle capacity and intervenes —
// stealing the back half of a straggler's remaining range, or
// speculatively duplicating in-flight shards on idle nodes. With both
// interventions off it returns at once.
func (r *runner) supervise() {
	if r.c.cfg.StealThreshold <= 0 && !r.c.cfg.Speculate {
		return
	}
	interval := r.c.cfg.StealInterval
	if interval <= 0 {
		interval = DefaultStealInterval
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopCtx.Done():
			return
		case <-ticker.C:
			r.superviseTick()
		}
	}
}

// superviseTick makes one pass of steal/speculate decisions. Both need
// the same precondition — idle nodes with an empty pool, i.e. capacity
// that plain pull cannot use — so the tick bails cheaply otherwise.
func (r *runner) superviseTick() {
	r.mu.Lock()
	if r.stopped || r.idle == 0 || len(r.pending) > 0 {
		r.mu.Unlock()
		return
	}
	idle := r.idle
	// A shard already covered twice (primary + twin in flight) is out of
	// bounds for both interventions: a third copy is waste, and stealing
	// from under a twin would let the ranges overlap-diverge.
	covered := make(map[int64]int)
	for fl := range r.flights {
		if !fl.gone() {
			covered[fl.sh.Offset]++
		}
	}
	var cands []*flight
	for fl := range r.flights {
		if fl.gone() || fl.spec.Load() || fl.hasShrink() || covered[fl.sh.Offset] > 1 {
			continue
		}
		if !r.c.registry.usable(fl.node) {
			continue
		}
		cands = append(cands, fl)
	}
	durs := append([]time.Duration(nil), r.shardDurs...)
	r.mu.Unlock()
	if len(cands) == 0 {
		return
	}

	now := time.Now()
	projs := make([]projection, 0, len(cands))
	for _, fl := range cands {
		t, ok := fl.projected(now)
		p := projection{f: fl, t: t, ok: ok, rem: fl.sh.Count - fl.cursor()}
		if !ok {
			// No measurable progress yet: the time already waited is the
			// only (lower-bound) estimate of what remains, so a wedged
			// flight grows ever more suspicious.
			p.t = now.Sub(fl.started)
		}
		projs = append(projs, p)
	}
	sort.Slice(projs, func(i, j int) bool { return projs[i].t > projs[j].t }) // slowest first

	if thr := r.c.cfg.StealThreshold; thr > 0 {
		if base, ok := stealBaseline(projs, durs); ok {
			for _, worst := range projs {
				if worst.f.shrunk {
					continue // never re-steal a shrunk front; see flight.shrunk
				}
				if float64(worst.t) > thr*float64(base) && worst.rem >= stealMinRemaining {
					if front, back, ok := worst.f.sh.SplitRemaining(worst.f.cursor()); ok {
						worst.f.setShrink(front, back)
						idle-- // the stolen back half will occupy one idle node
						go r.cancelJob(worst.f.node, worst.f.id)
					}
				}
				break // only the slowest stealable flight is considered per tick
			}
		}
	}

	if r.c.cfg.Speculate {
		for _, p := range projs {
			if idle <= 0 {
				break
			}
			if p.f.hasShrink() { // just stolen from above
				continue
			}
			if r.pushSpeculative(p.f.sh) {
				idle--
			}
		}
	}
}

// projection is one candidate flight's estimated time to finish. When
// the flight has made no measurable progress (ok false), t is the time
// already waited instead — a lower bound that keeps wedged flights in
// the straggler ordering.
type projection struct {
	f   *flight
	t   time.Duration
	ok  bool
	rem int64
}

// stealBaseline is the yardstick a straggler is measured against: the
// median projected finish of the other in-flight shards, or — when the
// straggler is the only flight left — the median wall time of already
// completed shards (what a healthy node would need). No data means no
// steal: the coordinator never guesses.
func stealBaseline(projs []projection, durs []time.Duration) (time.Duration, bool) {
	var ts []time.Duration
	for _, p := range projs[1:] {
		if p.ok {
			ts = append(ts, p.t)
		}
	}
	if len(ts) == 0 {
		ts = durs
	}
	if len(ts) == 0 {
		return 0, false
	}
	sorted := append([]time.Duration(nil), ts...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)/2], true
}

// pushSpeculative queues a duplicate of an in-flight shard for an idle
// node, reporting whether it was queued. check.Merge tolerates the
// overlap by construction, but the runner never lets it reach the merge:
// the first result per offset wins and the loser is cancelled.
func (r *runner) pushSpeculative(sh check.Shard) bool {
	r.mu.Lock()
	defer func() {
		r.mu.Unlock()
		r.cond.Signal()
	}()
	if r.stopped || r.results[sh.Offset] != nil {
		return false
	}
	// Re-check coverage under the lock: a twin may have appeared since
	// the tick snapshot, or an earlier iteration of this very tick.
	n := 0
	for fl := range r.flights {
		if !fl.gone() && fl.sh.Offset == sh.Offset {
			n++
		}
	}
	for _, e := range r.pending {
		if e.sh.Offset == sh.Offset {
			n++
		}
	}
	if n != 1 {
		return false
	}
	r.pending = append(r.pending, pendingEntry{sh: sh, speculative: true})
	r.speculated++
	r.c.metrics.speculated.Inc()
	return true
}

// membershipLoop reacts to registry changes for the duration of a check:
// joiners get a node loop (entering the shard pool immediately), retirees
// have their in-flight shards evicted, and a fleet with no usable node
// left fails the run rather than hanging.
func (r *runner) membershipLoop() {
	for {
		select {
		case <-r.stopCtx.Done():
			return
		case <-r.c.registry.Watch():
			r.reconcile()
		}
	}
}

// reconcile aligns the running check with the registry snapshot.
func (r *runner) reconcile() {
	alive := 0
	for _, m := range r.c.registry.Members() {
		if m.State == NodeRetired {
			r.evictNode(m.URL)
			continue
		}
		alive++
		r.spawnLoop(m.URL)
	}
	if alive == 0 {
		r.mu.Lock()
		if !r.stopped {
			r.failLocked(errNoNodesLeft)
		}
		r.mu.Unlock()
		r.cond.Broadcast()
	}
}

// evictNode evicts every flight on a retired node.
func (r *runner) evictNode(url string) {
	r.mu.Lock()
	var victims []*flight
	for fl := range r.flights {
		if fl.node == url && !fl.gone() {
			victims = append(victims, fl)
		}
	}
	r.mu.Unlock()
	for _, fl := range victims {
		r.evict(fl)
	}
}

// evict abandons one flight on a retired node: its watcher returns
// errEvicted at once — even when the node is frozen and will never answer
// the stream — and the shard is requeued without charging its retry
// budget, since leaving is not a failure. The job is cancelled on the
// node in the background, once however many times the flight is evicted.
func (r *runner) evict(fl *flight) {
	if fl.evicted.Swap(true) {
		return
	}
	fl.abort()
	go r.cancelJob(fl.node, fl.id)
}

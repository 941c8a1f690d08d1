// Package sweep is the shared parallel domain-enumeration engine behind
// every exhaustive verdict the library produces: soundness, maximality,
// completeness, and the pass-count columns of the experiment tables all
// reduce to "visit every tuple of a finite cartesian product and fold the
// observations".
//
// The engine indexes the product 0..Size-1 in mixed radix (last position
// fastest, matching core.Domain.Enumerate) and cuts that index space into
// fixed-size chunks. Each worker owns a contiguous run of chunks and takes
// them front to back; a worker whose run is used up steals the back half
// of the largest run left, so load balances dynamically even when
// per-tuple cost is skewed, while each worker keeps walking neighbouring
// tuples (warm prefix snapshots): idle capacity takes the next work, as
// an idle service runner pops the next job. Within a chunk a
// worker advances an odometer rather than re-dividing, so the per-tuple
// scheduling cost is a few array writes. By default a run lends itself the
// process's idle CPUs: it adds workers while fewer sweep workers run in
// the process than GOMAXPROCS and gives them back when other runs start.
//
// RunBatchContext is the one entry point. It delivers tuples in
// innermost-axis strides of up to a caller-chosen width, with the
// odometer's carry-depth hint; width 1 is the scalar sweep, one tuple per
// call. The callback receives the worker index so callers can keep
// per-worker state (view tables, counters) without locks and merge it
// after RunBatchContext returns. The input buffer is reused per worker;
// callbacks must copy it if they retain it.
package sweep

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTooLarge is returned by RunBatchContext when the cartesian product
// has more tuples than fit in an int, which would otherwise wrap the index
// space and silently skip (or repeat) tuples.
var ErrTooLarge = errors.New("sweep: domain product overflows int")

// ErrBadRange is returned by RunBatchContext when Config.Offset or
// Config.Count is negative.
var ErrBadRange = errors.New("sweep: negative shard offset or count")

// DefaultChunk is the chunk size used when Config.Chunk is unset. It is
// large enough that claiming a chunk is noise against sweeping it and
// small enough that a skewed tail still balances across workers.
const DefaultChunk = 1024

// Observer receives engine events as a sweep runs — the instrumentation
// seam the policy-checking service hangs chunk counters, chunk-duration
// histograms, and per-job trace events on. Implementations must be safe
// for concurrent use: with multiple workers, ChunkDone is called from
// every worker goroutine. A nil Config.Observer costs one predictable
// branch per chunk, so library callers and benchmarks that don't
// observe pay effectively nothing.
type Observer interface {
	// ChunkDone reports one completed chunk: the worker that ran it,
	// the number of tuples it covered, and how long it took.
	ChunkDone(worker, tuples int, d time.Duration)
}

// Config tunes the engine. The zero value means "pick sensible defaults".
type Config struct {
	// Workers is the number of goroutines, fixed for the whole run. ≤ 0
	// lends the run idle CPUs: it starts on one worker and, once it has
	// run for 100 µs, adds one at a chunk boundary while fewer sweep
	// workers run in the process than GOMAXPROCS, up to runtime.NumCPU();
	// an added worker leaves at its next chunk boundary once the process
	// runs more than GOMAXPROCS.
	Workers int
	// Chunk is the number of tuples a worker claims at a time, the grain
	// of stealing, cancellation, progress and commits; ≤ 0 picks a size
	// that gives every worker several chunks.
	Chunk int
	// Offset restricts the run to the suffix of the mixed-radix index
	// space starting at this product index — the shard primitive behind
	// distributed checking. 0 starts at the beginning; negative is an
	// error.
	Offset int
	// Count bounds how many product indices the run visits from Offset:
	// the run covers [Offset, Offset+Count), clamped to the product size.
	// 0 means "through the end"; negative is an error.
	Count int
	// Progress, when non-nil, is atomically advanced by the number of
	// tuples visited as each chunk completes. Long-running sweeps (the
	// policy-checking service's job lifecycle) read it to report progress
	// without adding per-tuple overhead; granularity is one chunk.
	Progress *atomic.Int64
	// Commit, when non-nil, is called as the contiguous completed prefix
	// of the run's range grows: once every chunk before index n (relative
	// to the range start) has completed, Commit(n) fires. Unlike Progress
	// — which counts completed chunks in any order — the committed prefix
	// is a resumption point: every tuple below it has been visited, so a
	// checkpointing caller (the persistent verdict store's crash-resume
	// cursor) can durably record it. Calls are serialized and strictly
	// monotone; granularity is one chunk.
	Commit func(done int)
	// Throttle, when positive, makes every worker sleep this long after
	// each completed chunk — an artificial slow-down hook for straggler
	// testing (a deliberately throttled `spm serve` node lets the elastic
	// cluster's steal/speculate paths be exercised deterministically). It
	// never changes which tuples are visited, only how fast; cancellation
	// still lands within one chunk because the sleep itself observes ctx.
	Throttle time.Duration
	// Observer, when non-nil, receives a ChunkDone callback for every
	// completed chunk (see Observer). Like Progress, it adds no
	// per-tuple overhead; unlike Progress it also carries the chunk's
	// wall-clock duration, the raw material for chunk-latency
	// histograms.
	Observer Observer
}

func (c Config) normalized(size int) Config {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.Workers > size && size > 0 {
		c.Workers = size
	}
	if c.Chunk <= 0 {
		c.Chunk = size / (c.Workers * 8)
		if c.Chunk < 1 {
			c.Chunk = 1
		}
		if c.Chunk > DefaultChunk {
			c.Chunk = DefaultChunk
		}
	}
	return c
}

// Size returns the number of tuples in the cartesian product of values,
// saturating at math.MaxInt when the product overflows. The empty product
// (no positions) has size 1: the single empty tuple.
func Size(values [][]int64) int {
	n, err := size(values)
	if err != nil {
		return math.MaxInt
	}
	return n
}

func size(values [][]int64) (int, error) {
	n := 1
	for _, vs := range values {
		if len(vs) == 0 {
			return 0, nil
		}
		if n > math.MaxInt/len(vs) {
			return 0, ErrTooLarge
		}
		n *= len(vs)
	}
	return n, nil
}

// ResolvedWorkers returns the most workers RunBatchContext runs at once
// for a product of the given size — the bound on its worker indices — so
// callers can size per-worker state and agree with the engine. A lending
// run (Workers ≤ 0) may use fewer; callers that keep costly per-worker
// state allocate it on a worker's first stride.
func (c Config) ResolvedWorkers(size int) int {
	lo, hi, err := c.Bounds(size)
	if err != nil {
		return c.normalized(size).Workers
	}
	return c.normalized(hi - lo).Workers
}

// Bounds resolves Offset/Count against a product of the given size: the
// run visits product indices [lo, hi). Callers that must agree with the
// engine on how many tuples a shard covers (verdict Checked totals, job
// progress denominators) use this rather than re-deriving the clamp.
func (c Config) Bounds(size int) (lo, hi int, err error) {
	if c.Offset < 0 || c.Count < 0 {
		return 0, 0, ErrBadRange
	}
	lo = c.Offset
	if lo > size {
		lo = size
	}
	hi = size
	if c.Count > 0 && c.Count < hi-lo {
		hi = lo + c.Count
	}
	return lo, hi, nil
}

// BatchFunc is the callback of RunBatchContext: fn receives a stride of up
// to width consecutive tuples that differ only in the last —
// fastest-varying — coordinate. input holds the first tuple of the stride;
// last holds the innermost coordinate of every tuple in it (so last[0] ==
// input[len(input)-1] and the stride covers the tuples obtained by
// substituting each element of last). Strides never cross an odometer
// carry or a chunk boundary, so the batch is exactly the unit a columnar
// executor can run from one shared prefix.
//
// carry is the number of leading coordinates guaranteed unchanged since
// the previous stride on this worker within its current chunk. The
// odometer walk knows it exactly: an increment that stops at digit i (no
// carry past it) leaves coordinates [0, i) untouched, so the callback
// learns carry == i for free. A stride continuing the same odometer row
// reports carry == len(input)-1 — only the innermost coordinate moved, so
// a prefix snapshot recorded on that earlier stride still applies — and
// the first stride of every chunk reports 0: the previous tuple, if any,
// belonged to another worker's chunk, so nothing is guaranteed. The hint
// is what the snapshot-stack compiled fast path keys on: a carry of c says
// every per-axis execution snapshot at depth ≤ c is still valid, so the
// run can resume from the deepest one instead of starting at instruction
// zero (flowchart.SnapshotStack.Run).
//
// Both slices are owned by the worker and reused between calls; fn may
// overwrite input's last element (the natural way to reconstruct per-lane
// tuples) but must copy anything it retains.
type BatchFunc func(worker int, input []int64, last []int64, carry int) error

// RunBatchContext enumerates the cartesian product of values in
// innermost-axis strides of up to width tuples, calling fn once per
// stride; width < 1 is treated as 1, the scalar sweep. Enumeration visits
// every tuple of the configured range exactly once (the whole product by
// default; the contiguous shard [Offset, Offset+Count) when cfg restricts
// it), in odometer order within each chunk. The zero-arity product
// delivers its single empty tuple as one call with nil input and nil last.
//
// The first worker runs on the calling goroutine and starts out owning the
// whole range; every other worker steals the back half of the largest
// range another worker still has, so each works through contiguous runs
// of chunks. With cfg.Workers > 0 the sweep starts that many workers at
// once. With cfg.Workers ≤ 0 it lends idle CPUs to the run instead: once
// the run has lasted longer than a helper costs to start, at each chunk
// boundary a worker adds a helper while fewer sweep workers run in the
// whole process than GOMAXPROCS (and fewer than runtime.NumCPU in this
// run), and a helper leaves at its next chunk boundary once the
// process runs more than GOMAXPROCS; what it had not swept goes to the
// others. The worker argument (0 ≤ worker < cfg.ResolvedWorkers) lets the
// callback address per-worker state without locking: a worker index is
// used by one goroutine at a time, and a helper that reuses the index of
// one that left starts after it stopped.
//
// The first error returned by fn stops all workers (strides already in
// flight may still be visited) and is returned. Workers observe ctx
// between chunks, so after ctx is cancelled every worker stops within one
// chunk of tuples and RunBatchContext returns ctx's error. A cancelled
// sweep has visited a subset of the range; cfg.Progress reflects exactly
// the tuples whose chunks completed. fn errors take precedence over
// cancellation, and a cancellation that loses the race with the final
// chunks — every tuple visited — reports success rather than discarding a
// complete enumeration.
func RunBatchContext(ctx context.Context, values [][]int64, cfg Config, width int, fn BatchFunc) error {
	if width < 1 {
		width = 1
	}
	size, err := size(values)
	if err != nil {
		return err
	}
	lo, hi, err := cfg.Bounds(size)
	if err != nil {
		return err
	}
	span := hi - lo
	if span == 0 {
		return nil
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if len(values) == 0 {
		err := fn(0, nil, nil, 0)
		if err == nil {
			if cfg.Observer != nil {
				cfg.Observer.ChunkDone(0, 1, 0)
			}
			if cfg.Progress != nil {
				cfg.Progress.Add(1)
			}
			if cfg.Commit != nil {
				cfg.Commit(1)
			}
		}
		return err
	}
	r := &batchRun{
		ctx:    ctx,
		values: values,
		width:  width,
		fn:     fn,
		lend:   cfg.Workers <= 0,
		start:  time.Now(),
		procs:  int64(runtime.GOMAXPROCS(0)),
		lo:     lo,
		span:   span,
	}
	r.cfg = cfg.normalized(span)
	if cfg.Commit != nil {
		r.commits = newCommitTracker(cfg.Commit)
	}
	r.ranges = make([]chunkRange, r.cfg.Workers)
	r.owned = make([]bool, r.cfg.Workers)
	r.errs = make([]error, r.cfg.Workers)
	r.ranges[0] = chunkRange{next: lo, end: hi}
	r.owned[0] = true
	running.Add(1)
	defer running.Add(-1)
	if !r.lend {
		for w := 1; w < r.cfg.Workers; w++ {
			if !r.join() {
				break
			}
		}
	}
	for {
		r.work(0)
		r.wg.Wait()
		// A helper that left may have handed back a range nobody took;
		// with every helper gone the first worker sweeps it.
		if r.stop.Load() || r.cancelled() || !r.remaining() {
			break
		}
	}
	for _, err := range r.errs {
		if err != nil {
			return err
		}
	}
	if r.visited.Load() == int64(span) {
		return nil
	}
	return ctx.Err()
}

// lendAfter is how long a lending run sweeps on its first worker before
// it adds helpers: several times what starting one costs (its goroutine,
// runner state and fold table, tens of microseconds), so a run too short
// to gain from a helper never pays for one.
const lendAfter = 100 * time.Microsecond

// running counts the sweep workers running in this process, over every
// sweep: the budget lending draws on. It is process-wide by design, since
// every sweep in the process — the in-process nodes of a cluster
// included — competes for the same CPUs.
var running atomic.Int64

// chunkRange is the part [next, end) of a run's range that one worker has
// still to sweep. Both bounds lie on chunk boundaries of the range (end
// may be its end), so stealing never changes which chunks the run visits.
type chunkRange struct{ next, end int }

// batchRun is the state of one RunBatchContext call.
type batchRun struct {
	ctx    context.Context
	values [][]int64
	width  int
	fn     BatchFunc
	cfg    Config
	lend   bool
	start  time.Time
	procs  int64 // GOMAXPROCS when the run started
	lo     int
	span   int

	mu     sync.Mutex
	ranges []chunkRange // by worker index
	owned  []bool       // a live worker holds the index

	wg      sync.WaitGroup
	stop    atomic.Bool
	visited atomic.Int64
	commits *commitTracker
	errs    []error
}

// work sweeps chunks as worker w until no work is left that w may take or
// the run stops. A lending helper also stops, and reports that it left,
// once the process runs more sweep workers than GOMAXPROCS; what it had
// not swept stays in its range for the others to take.
func (r *batchRun) work(w int) (left bool) {
	for !r.stop.Load() && !r.cancelled() {
		if w != 0 && r.lend && r.leave() {
			return true
		}
		if r.lend && time.Since(r.start) >= lendAfter {
			r.join()
		}
		start, end, ok := r.claim(w)
		if !ok {
			return false
		}
		if err := runObserved(r.chunk, start, end, w, r.cfg.Observer); err != nil {
			r.errs[w] = err
			r.stop.Store(true)
			return false
		}
		r.progress(start, end)
		// No nap after the final chunk: a complete enumeration reports
		// success even if cancellation lands during the pause.
		if r.visited.Add(int64(end-start)) == int64(r.span) {
			return false
		}
		if throttle(r.ctx, r.cfg.Throttle) != nil {
			return false
		}
	}
	return false
}

// cancelled reports whether the run's context is done.
func (r *batchRun) cancelled() bool {
	select {
	case <-r.ctx.Done():
		return true
	default:
		return false
	}
}

func (r *batchRun) chunk(start, end, worker int) error {
	return runChunkBatch(r.values, start, end, worker, r.width, r.fn)
}

func (r *batchRun) progress(start, end int) {
	if r.cfg.Progress != nil {
		r.cfg.Progress.Add(int64(end - start))
	}
	if r.commits != nil {
		r.commits.done(start-r.lo, end-r.lo)
	}
}

// join starts a helper on a free worker index, with what that index left
// unswept or else stolen work (see steal), counting it against the
// process-wide budget when the run lends. It reports whether a helper
// started.
func (r *batchRun) join() bool {
	if r.lend {
		for {
			n := running.Load()
			if n >= r.procs {
				return false
			}
			if running.CompareAndSwap(n, n+1) {
				break
			}
		}
	} else {
		running.Add(1)
	}
	r.mu.Lock()
	// A free index may still hold the range of a helper that left; the
	// new helper takes that up first.
	w := slices.Index(r.owned, false)
	if w < 0 || r.ranges[w].next >= r.ranges[w].end && !r.steal(w) {
		r.mu.Unlock()
		running.Add(-1)
		return false
	}
	r.owned[w] = true
	r.mu.Unlock()
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		left := r.work(w)
		r.mu.Lock()
		r.owned[w] = false
		r.mu.Unlock()
		if !left {
			running.Add(-1)
		}
	}()
	return true
}

// leave reports whether a lending helper should stop now because the
// process runs more sweep workers than GOMAXPROCS, and if so takes it off
// the count. The check and the decrement are one step, so exactly the
// excess leaves however many helpers look at once.
func (r *batchRun) leave() bool {
	for {
		n := running.Load()
		if n <= r.procs {
			return false
		}
		if running.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// claim hands worker w the next chunk of its range, first stealing a
// range when its own is used up.
func (r *batchRun) claim(w int) (start, end int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cr := &r.ranges[w]
	if cr.next >= cr.end && !r.steal(w) {
		return 0, 0, false
	}
	start = cr.next
	cr.next = min(start+r.cfg.Chunk, cr.end)
	return start, cr.next, true
}

// steal gives worker w, whose range is used up, more work: a range no live
// worker holds, whole, or else the back half of the chunks of the largest
// range a live worker still has two or more chunks in. The caller holds
// r.mu.
func (r *batchRun) steal(w int) bool {
	v, most := -1, 0
	for i, cr := range r.ranges {
		n := cr.end - cr.next
		if i == w || n == 0 {
			continue
		}
		if !r.owned[i] {
			r.ranges[w], r.ranges[i] = cr, chunkRange{}
			return true
		}
		if n > most {
			v, most = i, n
		}
	}
	chunks := (most + r.cfg.Chunk - 1) / r.cfg.Chunk
	if chunks < 2 {
		return false
	}
	from := &r.ranges[v]
	mid := from.next + (chunks-chunks/2)*r.cfg.Chunk
	r.ranges[w] = chunkRange{next: mid, end: from.end}
	from.end = mid
	return true
}

// remaining reports whether any range still has tuples to sweep.
func (r *batchRun) remaining() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, cr := range r.ranges {
		if cr.next < cr.end {
			return true
		}
	}
	return false
}

// runObserved runs one chunk, timing it only when an observer is
// installed — the nil path stays exactly the unobserved engine.
func runObserved(chunk func(start, end, worker int) error, start, end, worker int, obs Observer) error {
	if obs == nil {
		return chunk(start, end, worker)
	}
	t0 := time.Now()
	err := chunk(start, end, worker)
	if err == nil {
		obs.ChunkDone(worker, end-start, time.Since(t0))
	}
	return err
}

// throttle sleeps for d after a completed chunk, returning early with
// ctx's error if the caller is cancelled mid-sleep. d ≤ 0 is free.
func throttle(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// commitTracker turns out-of-order chunk completions into the monotone
// contiguous-prefix commits of Config.Commit. Chunks complete in any order
// across workers, so a completed chunk either extends the prefix directly
// or parks (by its range-relative start) until every chunk before it lands.
type commitTracker struct {
	mu      sync.Mutex
	next    int         // range-relative index the prefix has reached
	pending map[int]int // completed chunks ahead of the prefix: start → end
	fn      func(done int)
}

func newCommitTracker(fn func(done int)) *commitTracker {
	return &commitTracker{pending: make(map[int]int), fn: fn}
}

// done records the completion of the range-relative chunk [start, end),
// invoking fn (under the tracker's lock, so calls are serialized and
// monotone) whenever the contiguous prefix advances.
func (t *commitTracker) done(start, end int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if start != t.next {
		t.pending[start] = end
		return
	}
	t.next = end
	for e, ok := t.pending[t.next]; ok; e, ok = t.pending[t.next] {
		delete(t.pending, t.next)
		t.next = e
	}
	t.fn(t.next)
}

// runChunkBatch visits product indices [start, end): one mixed-radix
// decode of start, then an odometer walk with the innermost digit advanced
// up to width positions at a time. A stride is clipped to the end of its
// row (the next carry) and to the end of the chunk, so callbacks always see
// lanes sharing one prefix and the chunk visits exactly [start, end).
func runChunkBatch(values [][]int64, start, end, worker, width int, fn BatchFunc) error {
	k := len(values)
	idx := make([]int, k)
	buf := make([]int64, k)
	rem := start
	for i := k - 1; i >= 0; i-- {
		n := len(values[i])
		idx[i] = rem % n
		buf[i] = values[i][idx[i]]
		rem /= n
	}
	inner := values[k-1]
	carry := 0
	for pos := start; pos < end; {
		j := idx[k-1]
		n := len(inner) - j
		if n > width {
			n = width
		}
		if n > end-pos {
			n = end - pos
		}
		// The callback may have scribbled the innermost coordinate of buf
		// on the previous call; every other coordinate is only written by
		// the carry below.
		buf[k-1] = inner[j]
		if err := fn(worker, buf, inner[j:j+n:j+n], carry); err != nil {
			return err
		}
		pos += n
		j += n
		if j < len(inner) {
			idx[k-1] = j
			carry = k - 1
			continue
		}
		idx[k-1] = 0
		carry = 0
		for i := k - 2; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(values[i]) {
				buf[i] = values[i][idx[i]]
				carry = i
				break
			}
			idx[i] = 0
			buf[i] = values[i][0]
		}
	}
	return nil
}

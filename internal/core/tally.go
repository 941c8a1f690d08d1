package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"spm/internal/flowchart"
)

// StackDepthBuckets is the number of per-axis replay buckets the tally
// keeps: replays resumed from stack depth d land in bucket min(d,
// StackDepthBuckets-1), so domains deeper than the bucket count fold
// their tail into the last bucket instead of growing the counter set.
const StackDepthBuckets = 8

// ExecTally aggregates execution-tier counters across a sweep's workers:
// how often the prefix-memoized tier captured, replayed, or invalidated
// a snapshot, and how the batch tier's strides, lanes, and divergences
// went. It is the core-layer half of the observability seam — the
// policy-checking service samples Counts into its metrics registry.
//
// Layout follows the sweep engine's per-worker discipline: every runner
// registers its own ExecPart (one allocation at worker start), so the
// per-tuple hot path pays one uncontended atomic add and never shares a
// cache line between workers. Counts folds the parts at read time. When a
// sweep ends, its parts fold into running totals and are dropped, so a
// long-lived tally (the service's) holds only the parts of sweeps in
// flight. A nil *ExecTally hands out nil parts, whose increments are
// no-ops — the disabled configuration costs a nil check per event.
type ExecTally struct {
	// root is the tally a sweep's scope registers into; nil on a root.
	root  *ExecTally
	mu    sync.Mutex
	done  ExecCounts
	parts []*ExecPart
}

// Part registers and returns a new per-worker accumulator.
func (t *ExecTally) Part() *ExecPart {
	if t == nil {
		return nil
	}
	p := &ExecPart{owner: t}
	r := t.rootOf()
	r.mu.Lock()
	r.parts = append(r.parts, p)
	r.mu.Unlock()
	return p
}

// Parts reports how many parts the tally holds: the runners of the sweeps
// in flight, plus any registered outside a sweep.
func (t *ExecTally) Parts() int {
	if t == nil {
		return 0
	}
	r := t.rootOf()
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.parts)
}

func (t *ExecTally) rootOf() *ExecTally {
	if t.root != nil {
		return t.root
	}
	return t
}

// scope returns the tally one sweep's runners register into: their parts
// count in t from the start, and retire drops them once the sweep ends.
func (t *ExecTally) scope() *ExecTally {
	if t == nil {
		return nil
	}
	return &ExecTally{root: t.rootOf()}
}

// retire folds the parts of a finished sweep's scope into the root's
// running totals and drops them. The sweep's runners must have stopped,
// so a Counts that loaded a part before it was dropped read the values
// folded here.
func (t *ExecTally) retire() {
	if t == nil {
		return
	}
	r := t.root
	r.mu.Lock()
	r.parts = slices.DeleteFunc(r.parts, func(p *ExecPart) bool {
		if p.owner != t {
			return false
		}
		p.addTo(&r.done)
		return true
	})
	r.mu.Unlock()
}

// ExecCounts is one consistent-enough snapshot of a tally (individual
// counters may lag an in-flight increment).
type ExecCounts struct {
	// MemoCaptures counts snapshot recordings (one per fresh odometer
	// row on the memoized tiers); MemoReplays counts executions resumed
	// from a snapshot (one per replayed tuple on the scalar tier, one
	// per replayed stride on the batch tier); MemoInvalid counts
	// replay attempts that found the snapshot unusable and fell back to
	// a full run.
	MemoCaptures int64
	MemoReplays  int64
	MemoInvalid  int64
	// BatchStrides counts lockstep executions, BatchLanes the tuples
	// they carried (lanes per stride = utilization of the configured
	// width), and BatchDiverged the lanes that left the lockstep on a
	// split decision and finished on the scalar engine.
	BatchStrides  int64
	BatchLanes    int64
	BatchDiverged int64
	// The snapshot-stack tier's answers by kind: StackFull counts
	// recordings from instruction zero (no valid per-axis capture),
	// StackReplays tails resumed from a captured stack entry,
	// StackConstants tuples answered by a constant suffix entry without
	// executing anything, and StackRowHits tuples answered from the
	// content-addressed row cache (width-1 sweeps only) — the two
	// pruning layers of the subdomain pruner.
	StackFull      int64
	StackReplays   int64
	StackConstants int64
	StackRowHits   int64
	// StackReplayDepth splits StackReplays by the stack depth the tail
	// resumed from (deeper = shorter tail = cheaper); depths beyond the
	// bucket count accumulate in the last bucket.
	StackReplayDepth [StackDepthBuckets]int64
}

// Counts folds the retired totals and every part still registered. It
// never decreases: a part folds into the totals only after its sweep has
// stopped counting.
func (t *ExecTally) Counts() ExecCounts {
	if t == nil {
		return ExecCounts{}
	}
	r := t.rootOf()
	r.mu.Lock()
	c := r.done
	parts := slices.Clone(r.parts)
	r.mu.Unlock()
	for _, p := range parts {
		p.addTo(&c)
	}
	return c
}

// ExecPart is one worker's accumulator; see ExecTally. Increment
// methods are nil-safe.
type ExecPart struct {
	owner            *ExecTally // the tally Part was called on
	memoCaptures     atomic.Int64
	memoReplays      atomic.Int64
	memoInvalid      atomic.Int64
	batchStrides     atomic.Int64
	batchLanes       atomic.Int64
	batchDiverged    atomic.Int64
	stackFull        atomic.Int64
	stackReplays     atomic.Int64
	stackConstants   atomic.Int64
	stackRowHits     atomic.Int64
	stackReplayDepth [StackDepthBuckets]atomic.Int64
}

// addTo adds the part's counters to c.
func (p *ExecPart) addTo(c *ExecCounts) {
	c.MemoCaptures += p.memoCaptures.Load()
	c.MemoReplays += p.memoReplays.Load()
	c.MemoInvalid += p.memoInvalid.Load()
	c.BatchStrides += p.batchStrides.Load()
	c.BatchLanes += p.batchLanes.Load()
	c.BatchDiverged += p.batchDiverged.Load()
	c.StackFull += p.stackFull.Load()
	c.StackReplays += p.stackReplays.Load()
	c.StackConstants += p.stackConstants.Load()
	c.StackRowHits += p.stackRowHits.Load()
	for d := range c.StackReplayDepth {
		c.StackReplayDepth[d] += p.stackReplayDepth[d].Load()
	}
}

func (p *ExecPart) memoCapture() {
	if p != nil {
		p.memoCaptures.Add(1)
	}
}

func (p *ExecPart) memoReplay() {
	if p != nil {
		p.memoReplays.Add(1)
	}
}

func (p *ExecPart) memoInvalidated() {
	if p != nil {
		p.memoInvalid.Add(1)
	}
}

// stackOp records one snapshot-stack answer by kind, bucketing replays by
// the resume depth.
func (p *ExecPart) stackOp(op flowchart.StackOp) {
	if p == nil {
		return
	}
	switch op.Kind {
	case flowchart.StackFull:
		p.stackFull.Add(1)
	case flowchart.StackReplay:
		p.stackReplays.Add(1)
		d := op.Depth
		if d < 0 {
			d = 0
		}
		if d >= StackDepthBuckets {
			d = StackDepthBuckets - 1
		}
		p.stackReplayDepth[d].Add(1)
	case flowchart.StackConstant:
		p.stackConstants.Add(1)
	case flowchart.StackRowHit:
		p.stackRowHits.Add(1)
	}
}

func (p *ExecPart) addBatch(strides, lanes, diverged int64) {
	if p != nil {
		p.batchStrides.Add(strides)
		p.batchLanes.Add(lanes)
		p.batchDiverged.Add(diverged)
	}
}

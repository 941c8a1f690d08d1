package flowchart

import (
	"fmt"
)

// This file generalizes the single-axis prefix memo of snapshot.go into a
// per-axis snapshot stack with subdomain pruning. Where a Snapshot keeps
// one capture — the state before the first instruction touching the
// innermost input — a SnapshotStack keeps one capture per domain axis: the
// state before the first executed instruction touching *any* input of that
// axis or deeper. The captures are nested along the execution path
// (suffix[d] ⊇ suffix[d+1], so entry d is reached no later than entry
// d+1), which makes the sweep engine's carry hint exactly the right
// invalidation rule: an odometer carry that stops at digit c leaves every
// capture at depth ≤ c valid and stales exactly the stack suffix above it.
//
// Two pruning layers ride on the stack:
//
//   - Constant suffixes. A run that halts without ever touching inputs
//     d..k-1 has a result independent of those axes; the stack records it
//     as a constant entry at every untouched depth, so the whole radix
//     product of those axes collapses to one execution — the wholesale
//     skip for axes the program never reads.
//
//   - Row collapse. Two odometer rows whose captured register files at the
//     innermost capture point are equal (ignoring registers that cannot
//     influence the tail: the innermost input's own slot, which every
//     replay overwrites, and the slots of inputs no instruction ever
//     touches) have identical tails for every innermost value. The stack
//     content-addresses rows the way the service's compile cache addresses
//     programs — hash first, verify with a full compare — and reuses tail
//     results across matching rows.
//
// The row cache is the scalar tier's alone. A stride runner
// (core.batchRunner at width > 1) calls DropRowCache: it sends only the
// first lane of a fresh stride through Run, so a hit could answer at most
// that lane while every odometer row would pay a row entry, a register
// copy and a results map.
//
// Everything falls back to a full recording run, so the result of every
// tuple is exactly RunReuse's; the differential suites and
// FuzzSnapshotStackVsScalar pin the equivalence byte-for-byte.

// maxStackRows bounds the distinct captured row states the row cache
// retains; maxStackResults bounds the cached tail results across all rows.
// Saturation stops insertion (lookups keep working), trading speed for a
// hard memory bound — never correctness. rowCacheProbation is the
// adaptive cutoff: once that many distinct row states have been inserted
// without a single collapse (two rows content-addressing equal) or cached
// result reused, the sweep's rows are evidently all distinct and the
// cache drops itself — the per-tuple hash/insert cost stops, the stack's
// per-axis replays continue unaffected.
const (
	maxStackRows      = 4096
	maxStackResults   = 1 << 16
	rowCacheProbation = 512
)

// StackOpKind classifies how SnapshotStack.Run answered one tuple.
type StackOpKind uint8

const (
	// StackFull: no valid capture applied; the run recorded from
	// instruction zero.
	StackFull StackOpKind = iota
	// StackReplay: the run resumed from the deepest valid per-axis
	// capture, re-recording the stack suffix above it.
	StackReplay
	// StackConstant: a constant entry answered the tuple without
	// executing anything — the program never touches the axes that
	// changed.
	StackConstant
	// StackRowHit: the row cache answered the tuple without executing
	// the tail — another row with identical captured state already ran
	// this innermost value.
	StackRowHit
)

// String names the op kind for logs and test output.
func (k StackOpKind) String() string {
	switch k {
	case StackFull:
		return "full"
	case StackReplay:
		return "replay"
	case StackConstant:
		return "constant"
	case StackRowHit:
		return "rowhit"
	default:
		return fmt.Sprintf("StackOpKind(%d)", int(k))
	}
}

// StackOp reports what one SnapshotStack.Run did: the kind of answer and
// the stack depth it keyed on — the depth resumed from for a replay, the
// depth of the constant entry for a constant answer. Execution tallies
// (core.ExecTally) aggregate these per axis.
type StackOp struct {
	Kind  StackOpKind
	Depth int
}

// stackEntry is one per-axis capture: the register file, program counter,
// and step count before the first executed instruction touching any input
// at this depth or deeper — or, for a constant entry, the halt result that
// holds for every value of the axes at this depth and deeper.
type stackEntry struct {
	regs  []int64
	pc    int32
	steps int64
	state snapState
	res   Result
}

// rowKey is the first level of the row cache's content addressing: the
// innermost capture point plus a hash of the masked register file. The
// step budget is part of the key so cached tails can never cross budget
// regimes.
type rowKey struct {
	pc     int32
	steps  int64
	budget int64
	hash   uint64
}

// rowEntry is one distinct captured row state and its cached tail results
// keyed by innermost value. regs is the masked register file (excluded
// slots zeroed) the second-level verify compares against.
type rowEntry struct {
	regs    []int64
	budget  int64
	results map[int64]Result
}

// SnapshotStack is the per-axis generalization of Snapshot: one capture
// point per domain axis, invalidated exactly by the sweep's odometer
// carries, plus constant-suffix skipping and content-addressed row
// collapse. Like a Snapshot or a register file it is single-goroutine
// state — each sweep worker owns one — and stays bound to the Compiled
// program that created it.
type SnapshotStack struct {
	c       *Compiled
	regs    []int64
	entries []stackEntry
	// suffix[d] is the OR of the touch-mask bits of inputs d..k-1
	// (suffix[k] == 0): entry d captures before the first instruction
	// whose touch mask intersects suffix[d].
	suffix []uint64
	// excluded marks register slots the row cache must ignore: the
	// innermost input's slot (every replay overwrites it) and the slots
	// of inputs no instruction ever touches (their values are
	// unreadable, so rows differing only there still share tails).
	excluded []bool
	hashBuf  []int64

	rows     map[rowKey][]*rowEntry
	row      *rowEntry
	nResults int
	rowHit   bool
	// rowInserts and rowWins drive the probation cutoff: inserts counts
	// distinct row states added, wins counts collapses and reused
	// results. A cache that only ever inserts gets dropped.
	rowInserts int
	rowWins    int
}

// NewSnapshotStack returns an empty snapshot stack for the program. For
// programs outside the fast path's reach (no inputs, or more than 64) the
// stack still answers every Run — it just records nothing and executes
// each tuple in full.
func (c *Compiled) NewSnapshotStack() *SnapshotStack {
	s := &SnapshotStack{c: c, regs: make([]int64, len(c.slotOf))}
	if c.lastBit == 0 {
		return s
	}
	k := len(c.inputSlots)
	s.entries = make([]stackEntry, k)
	for d := range s.entries {
		s.entries[d].regs = make([]int64, len(c.slotOf))
	}
	s.suffix = make([]uint64, k+1)
	for d := k - 1; d >= 0; d-- {
		s.suffix[d] = s.suffix[d+1] | 1<<d
	}
	var touched uint64
	for i := range c.code {
		touched |= c.code[i].touch
	}
	s.excluded = make([]bool, len(c.slotOf))
	s.excluded[c.lastSlot] = true
	for i, slot := range c.inputSlots {
		if touched&(1<<i) == 0 {
			s.excluded[slot] = true
		}
	}
	s.hashBuf = make([]int64, len(c.slotOf))
	s.rows = make(map[rowKey][]*rowEntry)
	return s
}

// Depth returns the deepest currently-valid capture (−1 when none) —
// exposed for tests and tooling.
func (s *SnapshotStack) Depth() int {
	for d := len(s.entries) - 1; d >= 0; d-- {
		if s.entries[d].state != snapInvalid {
			return d
		}
	}
	return -1
}

// DropRowCache switches the row cache off for the life of the stack: no
// row is hashed, stored or answered from the cache, so Run allocates
// nothing per odometer row. The per-axis captures and constant entries
// work as before.
func (s *SnapshotStack) DropRowCache() {
	s.rows, s.row = nil, nil
}

// RowStats reports the row cache's occupancy: distinct captured row
// states and cached tail results.
func (s *SnapshotStack) RowStats() (rows, results int) {
	for _, chain := range s.rows {
		rows += len(chain)
	}
	return rows, s.nResults
}

// Invalidate discards every capture and forgets the bound row (the row
// cache itself survives — its entries are content-addressed, not
// positional). The next Run records from scratch.
func (s *SnapshotStack) Invalidate() {
	for d := range s.entries {
		s.entries[d].state = snapInvalid
	}
	s.row = nil
}

// Run executes the program on input, reusing every capture the carry hint
// proves valid: carry is the number of leading coordinates unchanged since
// the previous Run on this stack (sweep.BatchFunc's guarantee; pass 0 when
// nothing is known). Entries above the carry are invalidated, the deepest
// surviving entry answers — a constant entry immediately, a captured entry
// by replaying the tail while re-recording the stack above it, the row
// cache without executing at all when another row already ran this tuple's
// tail — and a tuple with no usable capture records from scratch. The
// Result (value, steps, violations, budget accounting) is exactly what
// RunReuse would produce for input.
func (s *SnapshotStack) Run(input []int64, carry int, maxSteps int64) (Result, StackOp, error) {
	c := s.c
	if len(input) != len(c.inputSlots) {
		return Result{}, StackOp{}, fmt.Errorf("%w: got %d inputs, program %q wants %d",
			ErrArity, len(input), c.Source.Name, len(c.inputSlots))
	}
	if c.lastBit == 0 {
		// No per-axis trace (arity 0, or more inputs than the 64-bit
		// masks can name): plain full runs forever.
		res, err := c.RunReuse(s.regs, input, maxSteps)
		return res, StackOp{Kind: StackFull}, err
	}
	k := len(c.inputSlots)
	if carry < 0 {
		carry = 0
	}
	if carry > k-1 {
		carry = k - 1
	}
	for d := carry + 1; d < k; d++ {
		s.entries[d].state = snapInvalid
	}
	if carry < k-1 {
		// New odometer row: the bound row entry no longer describes the
		// current prefix.
		s.row = nil
	}
	d := carry
	for d >= 0 && s.entries[d].state == snapInvalid {
		d--
	}
	if d >= 0 && s.entries[d].state == snapConstant {
		return s.entries[d].res, StackOp{Kind: StackConstant, Depth: d}, nil
	}
	s.rowHit = false
	if d < 0 {
		regs := s.regs
		for i := range regs {
			regs[i] = 0
		}
		for i, slot := range c.inputSlots {
			regs[slot] = input[i]
		}
		res, err := s.record(input, 0, c.start, 0, maxSteps)
		return res, s.op(StackFull, 0), err
	}
	e := &s.entries[d]
	if d == k-1 && s.row != nil && s.row.budget == maxSteps {
		if res, ok := s.row.results[input[k-1]]; ok {
			s.rowWins++
			return res, StackOp{Kind: StackRowHit, Depth: d}, nil
		}
	}
	copy(s.regs, e.regs)
	// Inputs at the entry's depth and deeper were untouched at its
	// capture point (anything touching them would have captured first),
	// so installing the current coordinates over their stale initial
	// values reconstructs exactly the state a fresh run would reach.
	for i := d; i < k; i++ {
		s.regs[c.inputSlots[i]] = input[i]
	}
	res, err := s.record(input, d+1, e.pc, e.steps, maxSteps)
	return res, s.op(StackReplay, d), err
}

// op folds a mid-record row hit into the reported operation.
func (s *SnapshotStack) op(kind StackOpKind, depth int) StackOp {
	if s.rowHit {
		return StackOp{Kind: StackRowHit, Depth: len(s.entries) - 1}
	}
	return StackOp{Kind: kind, Depth: depth}
}

// record is the recording execution loop: runLoop with multi-point
// capture. Before executing each instruction it captures every pending
// stack entry whose suffix mask the instruction touches (several depths
// may capture at the same instruction); a halt turns the still-pending
// depths into constant entries and feeds the row cache; budget exhaustion
// or an execution fault leaves them invalid, so later tuples fall back
// exactly as a fresh run would.
func (s *SnapshotStack) record(input []int64, nextCapture int, pc int32, steps, maxSteps int64) (Result, error) {
	c := s.c
	k := len(c.inputSlots)
	regs := s.regs
	for {
		if steps >= maxSteps {
			return Result{Steps: steps}, fmt.Errorf("%w: budget %d, program %q", ErrStepLimit, maxSteps, c.Source.Name)
		}
		n := &c.code[pc]
		for nextCapture < k && n.touch&s.suffix[nextCapture] != 0 {
			e := &s.entries[nextCapture]
			copy(e.regs, regs)
			e.pc, e.steps = pc, steps
			e.state = snapCaptured
			nextCapture++
			if nextCapture == k {
				if res, hit := s.bindRow(pc, steps, maxSteps, input[k-1]); hit {
					s.rowHit = true
					return res, nil
				}
			}
		}
		steps++
		switch n.kind {
		case KindStart:
			pc = n.next
		case KindAssign:
			regs[n.target] = n.expr(regs)
			pc = n.next
		case KindDecision:
			if n.cond(regs) {
				pc = n.onTrue
			} else {
				pc = n.onFalse
			}
		case KindHalt:
			var res Result
			if n.violation {
				res = Result{Steps: steps, Violation: true, Notice: n.notice}
			} else {
				res = Result{Value: regs[c.outputSlot], Steps: steps}
			}
			// Axes never touched on this path: the result holds for every
			// value of each still-pending depth's radix suffix.
			for m := nextCapture; m < k; m++ {
				e := &s.entries[m]
				e.state = snapConstant
				e.res = res
			}
			s.storeRow(input[k-1], maxSteps, res)
			return res, nil
		default:
			return Result{Steps: steps}, fmt.Errorf("flowchart %q: node %d has unknown kind %d", c.Source.Name, pc, n.kind)
		}
	}
}

// bindRow content-addresses the just-captured innermost state: hash the
// masked register file, verify candidates with a full compare (hash
// collisions must never cross-contaminate rows — verdicts are
// byte-identical by contract), and bind the matching or freshly inserted
// row entry. Reports a cached tail result for last when the bound row
// already ran it.
func (s *SnapshotStack) bindRow(pc int32, steps, maxSteps int64, last int64) (Result, bool) {
	s.row = nil
	if s.rows == nil {
		return Result{}, false
	}
	copy(s.hashBuf, s.regs)
	for slot, ex := range s.excluded {
		if ex {
			s.hashBuf[slot] = 0
		}
	}
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for _, v := range s.hashBuf {
		h ^= uint64(v)
		h *= fnvPrime
	}
	key := rowKey{pc: pc, steps: steps, budget: maxSteps, hash: h}
	chain := s.rows[key]
	for _, r := range chain {
		match := true
		for i, v := range r.regs {
			if s.hashBuf[i] != v {
				match = false
				break
			}
		}
		if match {
			// Two rows collapsed onto one captured state — the cache is
			// earning its keep.
			s.rowWins++
			s.row = r
			if res, ok := r.results[last]; ok {
				return res, true
			}
			return Result{}, false
		}
	}
	if len(s.rows) >= maxStackRows {
		return Result{}, false
	}
	s.rowInserts++
	if s.rowWins == 0 && s.rowInserts >= rowCacheProbation {
		// Every row state so far has been distinct: stop paying the
		// per-row hash and per-tuple result bookkeeping for a cache that
		// never answers.
		s.rows = nil
		return Result{}, false
	}
	r := &rowEntry{
		regs:    append([]int64(nil), s.hashBuf...),
		budget:  maxSteps,
		results: make(map[int64]Result),
	}
	s.rows[key] = append(chain, r)
	s.row = r
	return Result{}, false
}

// storeRow caches a completed tail result on the bound row. Error results
// are never cached (the error paths re-execute and fail identically), and
// saturation simply stops caching.
func (s *SnapshotStack) storeRow(last int64, maxSteps int64, res Result) {
	if s.row == nil || s.row.budget != maxSteps || s.nResults >= maxStackResults {
		return
	}
	if _, ok := s.row.results[last]; !ok {
		s.row.results[last] = res
		s.nResults++
	}
}

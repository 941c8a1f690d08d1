package flowchart

import (
	"errors"
	"fmt"
)

// This file implements prefix memoization for the compiled tiers: a
// per-axis snapshot stack with subdomain pruning. A SnapshotStack keeps
// one capture per domain axis — the state before the first executed
// instruction touching *any* input of that axis or deeper (the compiler's
// touch masks, InputTrace, detect it). No earlier instruction touches
// those inputs, so the capture holds for every value of them: reads under
// data-dependent branches and re-reads are sound, and a run that dies
// before a capture point leaves that entry invalid (DESIGN.md, "Prefix
// memoization", spells the argument out).
//
// The captures are nested along the execution path
// (suffix[d] ⊇ suffix[d+1], so entry d is reached no later than entry
// d+1), which makes the sweep engine's carry hint exactly the right
// invalidation rule: an odometer carry that stops at digit c leaves every
// capture at depth ≤ c valid and stales exactly the stack suffix above it.
//
// Constant suffixes ride on the stack: a run that halts without ever
// touching inputs d..k-1 has a result independent of those axes, so the
// stack records it as a constant entry at every untouched depth and the
// whole radix product of those axes collapses to one execution — the
// wholesale skip for axes the program never reads.
//
// The stride runner (core.batchRunner) sends the first lane of each fresh
// stride through Run and resumes the remaining lanes, and every
// continuation stride of the row, from the innermost capture
// (Compiled.RunBatchFromStack); Run allocates nothing per tuple.
//
// Everything falls back to a full recording run, so the result of every
// tuple is exactly RunReuse's; the differential suites and
// FuzzSnapshotStackVsScalar pin the equivalence byte-for-byte.

// ErrNoSnapshot is returned by RunBatchFromStack when the stack has no
// usable innermost capture: the recording run never reached the
// innermost input (it exhausted its step budget or failed first), the
// stack belongs to a different Compiled program, or the program has no
// per-axis trace. Callers fall back to RunBatch.
var ErrNoSnapshot = errors.New("flowchart: no valid snapshot")

// snapState is the lifecycle of one stack entry: no usable capture
// (snapInvalid), state captured just before the first instruction that
// touches the entry's inputs (snapCaptured), or the result of a recording
// run that halted without touching them, which holds for every value of
// them (snapConstant).
type snapState uint8

const (
	snapInvalid snapState = iota
	snapCaptured
	snapConstant
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

// SnapshotStack is the prefix memo of a compiled program: one capture
// point per domain axis, invalidated exactly by the sweep's odometer
// carries, plus constant-suffix skipping. Like a register file it is
// single-goroutine state — each sweep worker owns one — and
// stays bound to the Compiled program that created it.
type SnapshotStack struct {
	c       *Compiled
	regs    []int64
	entries []stackEntry
	// suffix[d] is the OR of the touch-mask bits of inputs d..k-1
	// (suffix[k] == 0): entry d captures before the first instruction
	// whose touch mask intersects suffix[d].
	suffix []uint64
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

// Invalidate discards every capture. The next Run records from scratch.
func (s *SnapshotStack) Invalidate() {
	for d := range s.entries {
		s.entries[d].state = snapInvalid
	}
}

// Run executes the program on input, reusing every capture the carry hint
// proves valid: carry is the number of leading coordinates unchanged since
// the previous Run on this stack (sweep.BatchFunc's guarantee; pass 0 when
// nothing is known). Entries above the carry are invalidated, the deepest
// surviving entry answers — a constant entry immediately, a captured entry
// by replaying the tail while re-recording the stack above it — and a
// tuple with no usable capture records from scratch. The Result (value,
// steps, violations, budget accounting) is exactly what RunReuse would
// produce for input.
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
	d := carry
	for d >= 0 && s.entries[d].state == snapInvalid {
		d--
	}
	if d >= 0 && s.entries[d].state == snapConstant {
		return s.entries[d].res, StackOp{Kind: StackConstant, Depth: d}, nil
	}
	if d < 0 {
		regs := s.regs
		for i := range regs {
			regs[i] = 0
		}
		for i, slot := range c.inputSlots {
			regs[slot] = input[i]
		}
		res, err := s.record(0, c.start, 0, maxSteps)
		return res, StackOp{Kind: StackFull}, err
	}
	e := &s.entries[d]
	copy(s.regs, e.regs)
	// Inputs at the entry's depth and deeper were untouched at its
	// capture point (anything touching them would have captured first),
	// so installing the current coordinates over their stale initial
	// values reconstructs exactly the state a fresh run would reach.
	for i := d; i < k; i++ {
		s.regs[c.inputSlots[i]] = input[i]
	}
	res, err := s.record(d+1, e.pc, e.steps, maxSteps)
	return res, StackOp{Kind: StackReplay, Depth: d}, err
}

// record is the recording execution loop: runLoop with multi-point
// capture. Before executing each instruction it captures every pending
// stack entry whose suffix mask the instruction touches (several depths
// may capture at the same instruction); a halt turns the still-pending
// depths into constant entries; budget exhaustion or an execution fault
// leaves them invalid, so later tuples fall back exactly as a fresh run
// would.
func (s *SnapshotStack) record(nextCapture int, pc int32, steps, maxSteps int64) (Result, error) {
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
			return res, nil
		default:
			return Result{Steps: steps}, fmt.Errorf("flowchart %q: node %d has unknown kind %d", c.Source.Name, pc, n.kind)
		}
	}
}

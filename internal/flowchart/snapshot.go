package flowchart

import (
	"errors"
	"fmt"
)

// ErrNoSnapshot is returned by RunFromSnapshot when the snapshot is
// invalid: the recording run never reached a valid capture point (it
// exhausted its step budget or failed first), the snapshot belongs to a
// different Compiled program, or RunSnapshot has not been called yet.
// Callers fall back to a full RunReuse.
var ErrNoSnapshot = errors.New("flowchart: no valid snapshot")

// snapState is the lifecycle of a Snapshot.
type snapState uint8

const (
	// snapInvalid: no usable capture; RunFromSnapshot refuses.
	snapInvalid snapState = iota
	// snapCaptured: state captured just before the first instruction that
	// touches the innermost input; RunFromSnapshot replays the tail.
	snapCaptured
	// snapConstant: the recording run halted without ever touching the
	// innermost input, so its result holds for every value of that input;
	// RunFromSnapshot returns it without executing anything.
	snapConstant
)

// Snapshot captures the execution state of a Compiled program — register
// file, program counter, and steps spent — at the first executed
// instruction that reads or writes the innermost input's register. Because
// no earlier instruction touches that register (that is what "first"
// means, and the compiler's per-instruction input trace is what detects
// it), the captured prefix is identical for every value of the innermost
// input: two runs that agree on all other inputs execute the same
// instructions, on the same data, up to the capture point. RunFromSnapshot
// exploits that to replay only the program tail when an enumeration in
// odometer order varies the innermost input — the prefix-memoized fast
// path of the sweep engine.
//
// The capture point is found dynamically, so inputs read under
// data-dependent branches and inputs read more than once are handled
// soundly: whichever instruction touches the innermost input first on the
// actual execution path is where the state is captured, and every later
// read sees the value RunFromSnapshot installed. The snapshot is invalid
// (and RunFromSnapshot falls back with ErrNoSnapshot) when the recording
// run exhausted maxSteps or failed before any instruction touched the
// innermost input.
//
// A Snapshot is single-goroutine state, like the register file it wraps:
// each sweep worker owns one. It stays bound to the Compiled program that
// created it.
type Snapshot struct {
	c     *Compiled
	regs  []int64
	pc    int32
	steps int64
	state snapState
	res   Result
}

// NewSnapshot returns an empty (invalid) snapshot for the program. Pass it
// to RunSnapshot to record a capture, then to RunFromSnapshot to replay
// tails.
func (c *Compiled) NewSnapshot() *Snapshot {
	return &Snapshot{c: c, regs: make([]int64, len(c.slotOf))}
}

// Valid reports whether RunFromSnapshot can use the snapshot.
func (s *Snapshot) Valid() bool { return s.state != snapInvalid }

// Invalidate discards the capture; the next RunFromSnapshot returns
// ErrNoSnapshot until RunSnapshot records again.
func (s *Snapshot) Invalidate() { s.state = snapInvalid }

// String renders the snapshot state for logs and examples.
func (s *Snapshot) String() string {
	switch s.state {
	case snapCaptured:
		return fmt.Sprintf("snapshot@pc=%d steps=%d", s.pc, s.steps)
	case snapConstant:
		return "snapshot: result constant in innermost input"
	default:
		return "snapshot: invalid"
	}
}

// RunSnapshot is RunReuse with snapshot recording: it executes the program
// in full and, as a side effect, captures into snap the register file,
// program counter, and step count at the first instruction that touches
// the innermost input's register. If the program halts without touching it
// the result is independent of the innermost input and the snapshot
// records the result itself; if the run exhausts maxSteps (or fails)
// before a capture, snap is left invalid and the caller keeps using full
// runs.
//
// regs and snap must both be owned by the calling goroutine; snap must
// have been created by this program's NewSnapshot.
func (c *Compiled) RunSnapshot(regs []int64, inputs []int64, maxSteps int64, snap *Snapshot) (Result, error) {
	if snap == nil || snap.c != c {
		return Result{}, fmt.Errorf("flowchart %q: snapshot belongs to a different program", c.Source.Name)
	}
	snap.state = snapInvalid
	if len(inputs) != len(c.inputSlots) {
		return Result{}, fmt.Errorf("%w: got %d inputs, program %q wants %d",
			ErrArity, len(inputs), c.Source.Name, len(c.inputSlots))
	}
	if len(regs) < len(c.slotOf) {
		return Result{}, fmt.Errorf("flowchart %q: register file has %d slots, need %d",
			c.Source.Name, len(regs), len(c.slotOf))
	}
	regs = regs[:len(c.slotOf)]
	for i := range regs {
		regs[i] = 0
	}
	for i, s := range c.inputSlots {
		regs[s] = inputs[i]
	}
	if c.lastBit == 0 {
		// No innermost input to memoize against (arity 0, or more inputs
		// than the 64-bit trace can name): plain run, snapshot stays
		// invalid.
		return c.runLoop(regs, c.start, 0, maxSteps)
	}
	pc := c.start
	var steps int64
	for {
		if steps >= maxSteps {
			// Budget exhausted before any instruction touched the
			// innermost input: no capture (the caller falls back to full
			// runs, which will exhaust identically).
			return Result{Steps: steps}, fmt.Errorf("%w: budget %d, program %q", ErrStepLimit, maxSteps, c.Source.Name)
		}
		n := &c.code[pc]
		if n.touch&c.lastBit != 0 {
			copy(snap.regs, regs)
			snap.pc, snap.steps = pc, steps
			snap.state = snapCaptured
			return c.runLoop(regs, pc, steps, maxSteps)
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
			// Halted without touching the innermost input (a violation
			// halt, or an output variable it never flowed into): the
			// result is the same for every value of that input.
			snap.state = snapConstant
			if n.violation {
				snap.res = Result{Steps: steps, Violation: true, Notice: n.notice}
			} else {
				snap.res = Result{Value: regs[c.outputSlot], Steps: steps}
			}
			return snap.res, nil
		default:
			return Result{Steps: steps}, fmt.Errorf("flowchart %q: node %d has unknown kind %d", c.Source.Name, pc, n.kind)
		}
	}
}

// RunFromSnapshot replays only the program tail: it restores snap's
// register file, installs last as the innermost input's value, and resumes
// execution at the captured instruction with the captured step count — so
// the result (value, steps, violations, and budget accounting) is exactly
// what a fresh run on the same inputs would produce, at the cost of only
// the instructions after the capture point.
//
// The caller must guarantee the row contract: since snap was recorded (or
// last replayed), only the innermost input may have changed. The sweep
// engine's carry hint at len(input)-1 (sweep.BatchFunc) is precisely that
// guarantee. A snapshot whose recording run never touched the innermost
// input returns the recorded result directly; an invalid snapshot returns
// ErrNoSnapshot and the caller falls back to RunReuse or RunSnapshot.
func (c *Compiled) RunFromSnapshot(regs []int64, snap *Snapshot, last int64, maxSteps int64) (Result, error) {
	if snap == nil || snap.c != c || snap.state == snapInvalid {
		return Result{}, ErrNoSnapshot
	}
	if snap.state == snapConstant {
		return snap.res, nil
	}
	if len(regs) < len(c.slotOf) {
		return Result{}, fmt.Errorf("flowchart %q: register file has %d slots, need %d",
			c.Source.Name, len(regs), len(c.slotOf))
	}
	regs = regs[:len(c.slotOf)]
	copy(regs, snap.regs)
	regs[c.lastSlot] = last
	return c.runLoop(regs, snap.pc, snap.steps, maxSteps)
}

// InputTrace returns the compiler's static input trace: for each input
// position, the instruction indices (Program.Nodes indices) that may read
// or write that input's register. It is the analysis behind the snapshot
// fast path — the capture point of a recording run is always the first
// executed member of the innermost input's trace — exposed for tests,
// tooling, and DESIGN.md's worked examples. Inputs beyond the 64th are
// reported as touched nowhere (the fast path is disabled for such
// programs).
func (c *Compiled) InputTrace() [][]int {
	trace := make([][]int, len(c.inputSlots))
	for i := range c.code {
		mask := c.code[i].touch
		for b := 0; mask != 0 && b < len(trace); b++ {
			if mask&(1<<b) != 0 {
				trace[b] = append(trace[b], i)
				mask &^= 1 << b
			}
		}
	}
	return trace
}

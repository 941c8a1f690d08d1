package flowchart

import (
	"fmt"
	"math"
)

// Compiled is a program lowered to slot-indexed form: variable names are
// resolved to positions in a flat register file and expressions become
// closures over it, removing per-step map lookups. Compiled.Run computes
// exactly the same Result (value, steps, violations) as Program.RunBudget;
// the equivalence is property-tested against the tree-walking interpreter.
//
// What the compiled tiers lower is the rewritten program (simplify.go):
// constant subtrees folded, and constant decisions and dead stores turned
// into jumps, with no change to any step count. Source stays the parsed
// program, and so do the touch masks, InputTrace and Slots: a jump still
// carries its box's mask, so snapshot capture points are where they were
// on the parsed program, and a mask that over-approximates what the
// rewritten box touches is still sound.
//
// This is the library's interpreter ablation: the benchmarks compare
// map-environment interpretation against compiled execution so the cost
// attributed to surveillance instrumentation can be separated from the
// cost of the execution engine.
type Compiled struct {
	Source *Program

	slotOf     map[string]int
	inputSlots []int
	outputSlot int
	code       []cnode
	start      int32
	// lastBit is the touch-mask bit of the innermost input (1 << (k-1)),
	// or 0 when the program has no inputs or more than 64 of them — in
	// which case a SnapshotStack never captures and callers fall back to
	// full runs. lastSlot is that input's register slot.
	lastBit  uint64
	lastSlot int
	// batchState is the lazily-compiled third execution tier (batch.go):
	// columnar kernels built on first NewLanes, shared by every worker.
	batchState
}

type cnode struct {
	kind      Kind
	target    int
	expr      func(regs []int64) int64
	cond      func(regs []int64) bool
	next      int32
	onTrue    int32
	onFalse   int32
	violation bool
	notice    string
	// touch is the static input trace of this instruction: bit i is set
	// when executing the node may read or write input i's register. An
	// assign touches the inputs its expression mentions plus its target; a
	// decision touches its predicate's inputs; a non-violating halt reads
	// the output variable, which may itself be an input. A SnapshotStack
	// captures execution state at the first instruction whose mask
	// intersects the inputs of an axis or deeper.
	touch uint64
}

// Compile lowers the program. The program must validate.
func (p *Program) Compile() (*Compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c := &Compiled{Source: p, slotOf: make(map[string]int)}
	slot := func(name string) int {
		if s, ok := c.slotOf[name]; ok {
			return s
		}
		s := len(c.slotOf)
		c.slotOf[name] = s
		return s
	}
	for _, in := range p.Inputs {
		c.inputSlots = append(c.inputSlots, slot(in))
	}
	c.outputSlot = slot(p.OutputVar())
	c.lastSlot = -1
	if k := len(p.Inputs); k > 0 && k <= 64 {
		c.lastBit = 1 << (k - 1)
		c.lastSlot = c.inputSlots[k-1]
	}
	// Every variable gets its slot, and every box its touch mask, from the
	// parsed program, before the rewrite drops anything. Inputs hold
	// slots 0..k-1 in order, so an input's touch bit is 1 << its slot.
	c.code = make([]cnode, len(p.Nodes))
	var touch uint64
	mark := func(v string) {
		if s := slot(v); s < len(p.Inputs) && c.lastBit != 0 {
			touch |= 1 << s
		}
	}
	for i := range p.Nodes {
		n := &p.Nodes[i]
		touch = 0
		switch n.Kind {
		case KindAssign:
			mark(n.Target)
			visitExpr(n.Expr, mark)
		case KindDecision:
			visitPred(n.Cond, mark)
		case KindHalt:
			if !n.Violation {
				mark(p.OutputVar())
			}
		}
		c.code[i].touch = touch
	}
	nodes := simplify(p, c.slotOf)
	for i := range nodes {
		n := &nodes[i]
		cn := &c.code[i]
		cn.kind, cn.next, cn.onTrue, cn.onFalse = n.Kind, int32(n.Next), int32(n.True), int32(n.False)
		cn.violation, cn.notice = n.Violation, n.Notice
		switch n.Kind {
		case KindAssign:
			cn.target = slot(n.Target)
			e, err := compileExpr(n.Expr, slot)
			if err != nil {
				return nil, fmt.Errorf("flowchart %q: node %d: %w", p.Name, i, err)
			}
			cn.expr = e
		case KindDecision:
			q, err := compilePred(n.Cond, slot)
			if err != nil {
				return nil, fmt.Errorf("flowchart %q: node %d: %w", p.Name, i, err)
			}
			cn.cond = q
		}
	}
	c.nodes = nodes
	c.start = int32(p.Start)
	return c, nil
}

// Slots returns the register-file size.
func (c *Compiled) Slots() int { return len(c.slotOf) }

// Run executes the compiled program; semantics identical to
// Program.RunBudget.
func (c *Compiled) Run(inputs []int64, maxSteps int64) (Result, error) {
	return c.RunReuse(make([]int64, len(c.slotOf)), inputs, maxSteps)
}

// RunReuse is Run with a caller-owned register file, so enumeration loops
// (the sweep engine's compiled fast path) pay no per-tuple allocation. regs
// must hold at least Slots() entries and is reinitialised here; the caller
// must not share it between concurrent runs.
func (c *Compiled) RunReuse(regs []int64, inputs []int64, maxSteps int64) (Result, error) {
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
	return c.runLoop(regs, c.start, 0, maxSteps)
}

// runLoop is the scalar execution core shared by RunReuse and
// SnapshotStack.Run: it executes from an arbitrary (pc, steps) point
// against an already-initialised register file.
func (c *Compiled) runLoop(regs []int64, pc int32, steps, maxSteps int64) (Result, error) {
	for {
		if steps >= maxSteps {
			return Result{Steps: steps}, fmt.Errorf("%w: budget %d, program %q", ErrStepLimit, maxSteps, c.Source.Name)
		}
		n := &c.code[pc]
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
			if n.violation {
				return Result{Steps: steps, Violation: true, Notice: n.notice}, nil
			}
			return Result{Value: regs[c.outputSlot], Steps: steps}, nil
		default:
			return Result{Steps: steps}, fmt.Errorf("flowchart %q: node %d has unknown kind %d", c.Source.Name, pc, n.kind)
		}
	}
}

// compileExpr lowers an expression tree to a closure over the register
// file.
func compileExpr(e Expr, slot func(string) int) (func([]int64) int64, error) {
	switch x := e.(type) {
	case Const:
		v := int64(x)
		return func([]int64) int64 { return v }, nil
	case Var:
		s := slot(string(x))
		return func(regs []int64) int64 { return regs[s] }, nil
	case *Neg:
		sub, err := compileExpr(x.X, slot)
		if err != nil {
			return nil, err
		}
		return func(regs []int64) int64 { return -sub(regs) }, nil
	case *BitNot:
		sub, err := compileExpr(x.X, slot)
		if err != nil {
			return nil, err
		}
		return func(regs []int64) int64 { return ^sub(regs) }, nil
	case *Bin:
		if m, ok := modMask(x); ok {
			if v, ok := x.L.(Var); ok {
				s := slot(string(v))
				return func(regs []int64) int64 { return modPow2(regs[s], m) }, nil
			}
			l, err := compileExpr(x.L, slot)
			if err != nil {
				return nil, err
			}
			return func(regs []int64) int64 { return modPow2(l(regs), m) }, nil
		}
		if f := compileBinFast(x, slot); f != nil {
			return f, nil
		}
		l, err := compileExpr(x.L, slot)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(x.R, slot)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case OpAdd:
			return func(regs []int64) int64 { return l(regs) + r(regs) }, nil
		case OpSub:
			return func(regs []int64) int64 { return l(regs) - r(regs) }, nil
		case OpMul:
			return func(regs []int64) int64 { return l(regs) * r(regs) }, nil
		case OpDiv:
			return func(regs []int64) int64 {
				lv, rv := l(regs), r(regs)
				if rv == 0 {
					return 0
				}
				if lv == math.MinInt64 && rv == -1 {
					return math.MinInt64
				}
				return lv / rv
			}, nil
		case OpMod:
			return func(regs []int64) int64 {
				lv, rv := l(regs), r(regs)
				if rv == 0 {
					return 0
				}
				if lv == math.MinInt64 && rv == -1 {
					return 0
				}
				return lv % rv
			}, nil
		case OpAnd:
			return func(regs []int64) int64 { return l(regs) & r(regs) }, nil
		case OpOr:
			return func(regs []int64) int64 { return l(regs) | r(regs) }, nil
		case OpXor:
			return func(regs []int64) int64 { return l(regs) ^ r(regs) }, nil
		case OpAndNot:
			return func(regs []int64) int64 { return l(regs) &^ r(regs) }, nil
		default:
			return nil, fmt.Errorf("compile: unknown binary op %d", x.Op)
		}
	case *Cond:
		p, err := compilePred(x.P, slot)
		if err != nil {
			return nil, err
		}
		a, err := compileExpr(x.A, slot)
		if err != nil {
			return nil, err
		}
		b, err := compileExpr(x.B, slot)
		if err != nil {
			return nil, err
		}
		// Both arms evaluated, like the interpreter: constant time.
		return func(regs []int64) int64 {
			av, bv := a(regs), b(regs)
			if p(regs) {
				return av
			}
			return bv
		}, nil
	case *Call:
		if x.Resolved == nil || x.Resolved.Fn == nil {
			return nil, fmt.Errorf("compile: unresolved call to %q", x.Name)
		}
		args := make([]func([]int64) int64, len(x.Args))
		for i, a := range x.Args {
			f, err := compileExpr(a, slot)
			if err != nil {
				return nil, err
			}
			args[i] = f
		}
		fn := x.Resolved.Fn
		return func(regs []int64) int64 {
			vals := make([]int64, len(args))
			for i, f := range args {
				vals[i] = f(regs)
			}
			return fn(vals)
		}, nil
	default:
		return nil, fmt.Errorf("compile: unknown expression type %T", e)
	}
}

// modMask reports whether x is a remainder by a positive power-of-two
// constant c, and returns c-1.
func modMask(x *Bin) (int64, bool) {
	c, ok := x.R.(Const)
	if !ok || x.Op != OpMod || c <= 0 || c&(c-1) != 0 {
		return 0, false
	}
	return int64(c) - 1, true
}

// modPow2 is v % (m+1) for a power of two m+1, without a division: the
// bias (v>>63)&m rounds a negative v toward zero before the mask clears
// its low bits, so the remainder truncates like Go's %, and MinInt64
// cannot overflow because the bias is added to a negative number.
func modPow2(v, m int64) int64 {
	return v - (v+(v>>63)&m)&^m
}

// compileBinFast specialises the overwhelmingly common var⊕const and
// var⊕var binary shapes into a single closure, so the compiled hot loop
// pays one indirect call per assignment instead of three. Returns nil when
// the shape or operator is not covered; the generic lowering handles it.
func compileBinFast(x *Bin, slot func(string) int) func([]int64) int64 {
	switch l := x.L.(type) {
	case Var:
		s := slot(string(l))
		switch r := x.R.(type) {
		case Const:
			c := int64(r)
			switch x.Op {
			case OpAdd:
				return func(regs []int64) int64 { return regs[s] + c }
			case OpSub:
				return func(regs []int64) int64 { return regs[s] - c }
			case OpMul:
				return func(regs []int64) int64 { return regs[s] * c }
			case OpAnd:
				return func(regs []int64) int64 { return regs[s] & c }
			case OpOr:
				return func(regs []int64) int64 { return regs[s] | c }
			case OpXor:
				return func(regs []int64) int64 { return regs[s] ^ c }
			case OpAndNot:
				return func(regs []int64) int64 { return regs[s] &^ c }
			}
		case Var:
			t := slot(string(r))
			switch x.Op {
			case OpAdd:
				return func(regs []int64) int64 { return regs[s] + regs[t] }
			case OpSub:
				return func(regs []int64) int64 { return regs[s] - regs[t] }
			case OpMul:
				return func(regs []int64) int64 { return regs[s] * regs[t] }
			case OpAnd:
				return func(regs []int64) int64 { return regs[s] & regs[t] }
			case OpOr:
				return func(regs []int64) int64 { return regs[s] | regs[t] }
			case OpXor:
				return func(regs []int64) int64 { return regs[s] ^ regs[t] }
			case OpAndNot:
				return func(regs []int64) int64 { return regs[s] &^ regs[t] }
			}
		}
	}
	return nil
}

// compileCmpFast is compileBinFast for comparisons.
func compileCmpFast(x *Cmp, slot func(string) int) func([]int64) bool {
	l, ok := x.L.(Var)
	if !ok {
		return nil
	}
	s := slot(string(l))
	switch r := x.R.(type) {
	case Const:
		c := int64(r)
		switch x.Op {
		case CmpEq:
			return func(regs []int64) bool { return regs[s] == c }
		case CmpNe:
			return func(regs []int64) bool { return regs[s] != c }
		case CmpLt:
			return func(regs []int64) bool { return regs[s] < c }
		case CmpLe:
			return func(regs []int64) bool { return regs[s] <= c }
		case CmpGt:
			return func(regs []int64) bool { return regs[s] > c }
		case CmpGe:
			return func(regs []int64) bool { return regs[s] >= c }
		}
	case Var:
		t := slot(string(r))
		switch x.Op {
		case CmpEq:
			return func(regs []int64) bool { return regs[s] == regs[t] }
		case CmpNe:
			return func(regs []int64) bool { return regs[s] != regs[t] }
		case CmpLt:
			return func(regs []int64) bool { return regs[s] < regs[t] }
		case CmpLe:
			return func(regs []int64) bool { return regs[s] <= regs[t] }
		case CmpGt:
			return func(regs []int64) bool { return regs[s] > regs[t] }
		case CmpGe:
			return func(regs []int64) bool { return regs[s] >= regs[t] }
		}
	}
	return nil
}

// compilePred lowers a predicate tree.
func compilePred(q Pred, slot func(string) int) (func([]int64) bool, error) {
	switch x := q.(type) {
	case BoolConst:
		v := bool(x)
		return func([]int64) bool { return v }, nil
	case *Not:
		sub, err := compilePred(x.X, slot)
		if err != nil {
			return nil, err
		}
		return func(regs []int64) bool { return !sub(regs) }, nil
	case *AndP:
		l, err := compilePred(x.L, slot)
		if err != nil {
			return nil, err
		}
		r, err := compilePred(x.R, slot)
		if err != nil {
			return nil, err
		}
		return func(regs []int64) bool {
			lv, rv := l(regs), r(regs)
			return lv && rv
		}, nil
	case *OrP:
		l, err := compilePred(x.L, slot)
		if err != nil {
			return nil, err
		}
		r, err := compilePred(x.R, slot)
		if err != nil {
			return nil, err
		}
		return func(regs []int64) bool {
			lv, rv := l(regs), r(regs)
			return lv || rv
		}, nil
	case *Cmp:
		if f := compileCmpFast(x, slot); f != nil {
			return f, nil
		}
		l, err := compileExpr(x.L, slot)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(x.R, slot)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case CmpEq:
			return func(regs []int64) bool { return l(regs) == r(regs) }, nil
		case CmpNe:
			return func(regs []int64) bool { return l(regs) != r(regs) }, nil
		case CmpLt:
			return func(regs []int64) bool { return l(regs) < r(regs) }, nil
		case CmpLe:
			return func(regs []int64) bool { return l(regs) <= r(regs) }, nil
		case CmpGt:
			return func(regs []int64) bool { return l(regs) > r(regs) }, nil
		case CmpGe:
			return func(regs []int64) bool { return l(regs) >= r(regs) }, nil
		default:
			return nil, fmt.Errorf("compile: unknown comparison op %d", x.Op)
		}
	default:
		return nil, fmt.Errorf("compile: unknown predicate type %T", q)
	}
}

// InputTrace returns the compiler's static input trace: for each input
// position, the instruction indices (Program.Nodes indices) that may read
// or write that input's register. It is the analysis behind the snapshot
// stack — the capture point of an axis is always the first executed
// member of the union of its and the deeper inputs' traces — exposed for
// tests, tooling, and DESIGN.md's worked examples. Inputs beyond the 64th
// are reported as touched nowhere (the stack records nothing for such
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

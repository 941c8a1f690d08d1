package flowchart

import (
	"fmt"
	"math"
	"sync"
)

// This file is the library's third execution tier. The tree-walking
// interpreter (interp.go) establishes semantics; the compiled scalar runner
// (compile.go) removes per-step map lookups; the batch runner here removes
// per-tuple instruction dispatch. It executes one instruction across a
// stride of N register files laid out structure-of-arrays — one column of N
// values per register slot — and every expression and predicate node is a
// columnar kernel: one closure call per node per stride, running a counted
// loop over the N lanes into a scratch column. The closure-call and switch
// overhead of evaluation is paid once per N lanes instead of once per
// tuple, leaving a tight loop body over contiguous int64s per lane.
// Kernels compute in dead lanes too, which is harmless because every
// operator is total. Call is the one exception: a registered Func is
// arbitrary Go code (a tabulated selection, say), so it runs lane by lane
// under the live mask and sees exactly the arguments, and makes exactly the
// calls, of the scalar engine.
//
// Lanes execute in lockstep. When a decision splits the live lanes, the
// lanes that leave the common path are extracted (their column values
// gathered into an ordinary register file) and finished on the scalar
// runLoop, so every lane's Result (value, steps, violations, budget
// accounting) is byte-identical to what RunReuse would have produced for
// that tuple. The equivalence is pinned by differential tests and
// FuzzBatchVsScalar.

// bnode is one instruction of the batch-compiled program: the same control
// fields as cnode plus its kernel. expr evaluates an assign's expression
// into the target's register column; cond fills the Lanes' condition
// column for a decision, which the decision counts over the live lanes and
// divergence reads lane by lane.
type bnode struct {
	kind      Kind
	target    int
	expr      kexpr
	cond      kpred
	next      int32
	onTrue    int32
	onFalse   int32
	violation bool
	notice    string
}

// ensureBatch lowers the rewritten program Compile kept (simplify.go) to
// batch form on first use. Compilation is lazy — interpreter- and
// scalar-only callers never pay for it — and happens once per Compiled,
// shared by every worker's Lanes.
func (c *Compiled) ensureBatch() error {
	c.batchOnce.Do(func() {
		k := &kernels{slotOf: c.slotOf, constAt: make(map[int64]int)}
		code := make([]bnode, len(c.nodes))
		for i := range c.nodes {
			n := &c.nodes[i]
			bn := bnode{kind: n.Kind, next: int32(n.Next), onTrue: int32(n.True), onFalse: int32(n.False),
				violation: n.Violation, notice: n.Notice}
			var err error
			switch n.Kind {
			case KindAssign:
				bn.target = c.slotOf[n.Target]
				bn.expr, err = k.expr(n.Expr, 0, 0)
			case KindDecision:
				bn.cond, err = k.pred(n.Cond, 0, 0)
			}
			if err != nil {
				c.batchErr = fmt.Errorf("flowchart %q: node %d: %w", c.Source.Name, i, err)
				return
			}
			code[i] = bn
		}
		c.bcode, c.bconsts, c.bints, c.bbools = code, k.consts, k.ints, k.bools
		c.nodes = nil // lowered; the compiled program need not retain it
	})
	return c.batchErr
}

// batchState is the lazily-built batch tier of a Compiled program; embedded
// in Compiled so the scalar structure stays unchanged. It is immutable once
// built: the columns kernels write live in each worker's Lanes.
type batchState struct {
	batchOnce sync.Once
	nodes     []Node // the rewritten program (simplify.go), until lowered
	bcode     []bnode
	bconsts   []int64 // the program's distinct constants, one Lanes column each
	bints     int     // int64 scratch columns of the largest expression tree
	bbools    int     // bool scratch columns of the largest expression tree
	batchErr  error
}

// Lanes is the mutable state of one batch execution stream: a
// structure-of-arrays register file (one contiguous column of Width values
// per slot), the kernels' constant and scratch columns, the live mask, and
// the scratch register file used to extract diverging lanes onto the
// scalar engine. Like a register file or a SnapshotStack, a Lanes is
// single-goroutine state — each sweep worker owns one — and stays bound to
// the Compiled program that created it.
type Lanes struct {
	c      *Compiled
	width  int
	cols   [][]int64 // cols[slot][lane]
	consts [][]int64 // consts[k] holds the program's k-th constant in every lane
	ints   [][]int64 // kernel scratch, shared by every instruction
	bools  [][]bool  // predicate scratch, shared by every instruction
	live   []bool
	conds  []bool
	errs   []error
	regs   []int64 // scratch for divergence extraction

	// Stats accumulates lane-level execution counts across the Lanes'
	// lifetime. Like the rest of the Lanes it is single-goroutine state:
	// read it from the owning worker (or after the sweep), not
	// concurrently with execution.
	Stats BatchStats
}

// BatchStats counts what the batch tier did: Strides is the number of
// lockstep executions, Lanes the tuples they carried (Lanes/Strides
// against the configured width is lane utilization), and Diverged the
// lanes that left the lockstep on a split decision and were finished on
// the scalar engine (Diverged/Lanes is the divergence rate).
type BatchStats struct {
	Strides  int64
	Lanes    int64
	Diverged int64
}

// NewLanes allocates batch-execution state for up to width lanes. width
// must be ≥ 1; RunBatch and RunBatchFromStack accept any batch size up
// to it, so sweep tails narrower than the configured stride reuse the same
// allocation.
func (c *Compiled) NewLanes(width int) (*Lanes, error) {
	if width < 1 {
		return nil, fmt.Errorf("flowchart %q: batch width %d, need ≥ 1", c.Source.Name, width)
	}
	if err := c.ensureBatch(); err != nil {
		return nil, err
	}
	slots, nc := len(c.slotOf), len(c.bconsts)
	ints := columns(make([]int64, (slots+nc+c.bints)*width), width)
	bools := columns(make([]bool, (2+c.bbools)*width), width)
	l := &Lanes{
		c:      c,
		width:  width,
		cols:   ints[:slots:slots],
		consts: ints[slots : slots+nc : slots+nc],
		ints:   ints[slots+nc:],
		live:   bools[0],
		conds:  bools[1],
		bools:  bools[2:],
		errs:   make([]error, width),
		regs:   make([]int64, slots),
	}
	for k, v := range c.bconsts {
		for lane := range l.consts[k] {
			l.consts[k][lane] = v
		}
	}
	return l, nil
}

// columns cuts flat into len(flat)/width capacity-capped columns.
func columns[T any](flat []T, width int) [][]T {
	cols := make([][]T, len(flat)/width)
	for i := range cols {
		cols[i] = flat[i*width : (i+1)*width : (i+1)*width]
	}
	return cols
}

// Width returns the lane capacity the Lanes was allocated with.
func (l *Lanes) Width() int { return l.width }

// RunBatch executes the program once per lane: lane i runs on the input
// tuple whose first len(inputs)-1 coordinates come from inputs and whose
// innermost coordinate is last[i] — the shape of a sweep stride along the
// fastest-varying axis. Results land in out (out[i] for lane i); the first
// error in lane order (a step-budget exhaustion, typically) is returned,
// matching the error the scalar sweep would have hit first. The program
// must have at least one input; len(last) must equal len(out) and fit in
// l's width.
//
// Every lane's Result is exactly what RunReuse would produce for the same
// tuple: lanes execute in lockstep while they agree and are finished on the
// scalar engine when they diverge.
func (c *Compiled) RunBatch(l *Lanes, inputs []int64, last []int64, maxSteps int64, out []Result) error {
	n, err := c.batchPreflight(l, len(last), len(out))
	if err != nil {
		return err
	}
	if len(c.inputSlots) == 0 {
		return fmt.Errorf("flowchart %q: batch execution needs at least one input", c.Source.Name)
	}
	if len(inputs) != len(c.inputSlots) {
		return fmt.Errorf("%w: got %d inputs, program %q wants %d",
			ErrArity, len(inputs), c.Source.Name, len(c.inputSlots))
	}
	for s := range l.cols {
		col := l.cols[s][:n]
		for i := range col {
			col[i] = 0
		}
	}
	for i, s := range c.inputSlots {
		col := l.cols[s][:n]
		for lane := range col {
			col[lane] = inputs[i]
		}
	}
	copy(l.cols[c.inputSlots[len(c.inputSlots)-1]][:n], last)
	return c.runBatchLoop(l, n, c.start, 0, maxSteps, out)
}

// RunBatchFromStack is RunBatch resuming from a snapshot stack's innermost
// capture: the stride's lanes resume in lockstep from the state the stack
// recorded before the first instruction touching the innermost input,
// each lane installing its own innermost value, with the captured step
// count — the composition that lets one capture amortize across a whole
// stride of the sweep's innermost axis. The row contract applies: since
// the innermost entry was recorded (a SnapshotStack.Run on this worker),
// only the innermost input may have changed — which is exactly what a
// sweep carry of k-1 guarantees. A
// constant innermost entry replicates its recorded result into every
// lane; an invalid one returns ErrNoSnapshot and the caller falls back to
// RunBatch.
func (c *Compiled) RunBatchFromStack(l *Lanes, st *SnapshotStack, last []int64, maxSteps int64, out []Result) error {
	if st == nil || st.c != c || len(st.entries) == 0 {
		return ErrNoSnapshot
	}
	e := &st.entries[len(st.entries)-1]
	if e.state == snapInvalid {
		return ErrNoSnapshot
	}
	n, err := c.batchPreflight(l, len(last), len(out))
	if err != nil {
		return err
	}
	if e.state == snapConstant {
		l.Stats.Strides++
		l.Stats.Lanes += int64(n)
		for i := 0; i < n; i++ {
			out[i] = e.res
		}
		return nil
	}
	for s := range l.cols {
		col := l.cols[s][:n]
		v := e.regs[s]
		for lane := range col {
			col[lane] = v
		}
	}
	copy(l.cols[c.lastSlot][:n], last)
	return c.runBatchLoop(l, n, e.pc, e.steps, maxSteps, out)
}

// batchPreflight validates the lanes/batch-size/output agreement shared by
// both batch entry points and resets per-run lane state.
func (c *Compiled) batchPreflight(l *Lanes, nLast, nOut int) (int, error) {
	if l == nil || l.c != c {
		return 0, fmt.Errorf("flowchart %q: lanes belong to a different program", c.Source.Name)
	}
	if nLast == 0 || nLast > l.width || nLast != nOut {
		return 0, fmt.Errorf("flowchart %q: batch of %d lanes with %d results (lane capacity %d)",
			c.Source.Name, nLast, nOut, l.width)
	}
	for i := 0; i < nLast; i++ {
		l.live[i] = true
		l.errs[i] = nil
	}
	return nLast, nil
}

// runBatchLoop is the lockstep execution core: one instruction fetched per
// iteration and applied across every live lane. Divergence — a decision
// whose live lanes disagree — keeps the larger side in the batch and
// finishes each lane of the smaller side on the scalar runLoop from its
// current state, so divergence costs exactly the scalar execution of the
// lanes that left. Budget exhaustion hits all live lanes at the same step
// (they are in lockstep); diverged lanes account their budgets
// independently on the scalar engine.
func (c *Compiled) runBatchLoop(l *Lanes, n int, pc int32, steps, maxSteps int64, out []Result) error {
	l.Stats.Strides++
	l.Stats.Lanes += int64(n)
	liveCount := n
	for liveCount > 0 {
		if steps >= maxSteps {
			err := fmt.Errorf("%w: budget %d, program %q", ErrStepLimit, maxSteps, c.Source.Name)
			for lane := 0; lane < n; lane++ {
				if l.live[lane] {
					out[lane] = Result{Steps: steps}
					l.errs[lane] = err
				}
			}
			break
		}
		node := &c.bcode[pc]
		steps++
		switch node.kind {
		case KindStart:
			pc = node.next
		case KindAssign:
			dst := l.cols[node.target][:n]
			if col := node.expr(l, dst); &col[0] != &dst[0] {
				copy(dst, col) // a Var or Const yields its own column
			}
			pc = node.next
		case KindDecision:
			conds := l.conds[:n]
			node.cond(l, conds)
			nTrue := 0
			for lane, t := range conds {
				if t && l.live[lane] {
					nTrue++
				}
			}
			switch {
			case nTrue == liveCount:
				pc = node.onTrue
			case nTrue == 0:
				pc = node.onFalse
			default:
				// Divergence: the majority side (ties go to the true arm)
				// stays batched; each minority lane is gathered into the
				// scratch register file and finished scalar from its branch
				// target with the common step count.
				stay := nTrue*2 >= liveCount
				stayPC, leavePC := node.onTrue, node.onFalse
				if !stay {
					stayPC, leavePC = node.onFalse, node.onTrue
				}
				for lane := 0; lane < n; lane++ {
					if !l.live[lane] || l.conds[lane] == stay {
						continue
					}
					for s := range l.cols {
						l.regs[s] = l.cols[s][lane]
					}
					out[lane], l.errs[lane] = c.runLoop(l.regs, leavePC, steps, maxSteps)
					l.live[lane] = false
					l.Stats.Diverged++
					liveCount--
				}
				pc = stayPC
			}
		case KindHalt:
			if node.violation {
				for lane := 0; lane < n; lane++ {
					if l.live[lane] {
						out[lane] = Result{Steps: steps, Violation: true, Notice: node.notice}
						l.live[lane] = false
					}
				}
			} else {
				outCol := l.cols[c.outputSlot]
				for lane := 0; lane < n; lane++ {
					if l.live[lane] {
						out[lane] = Result{Value: outCol[lane], Steps: steps}
						l.live[lane] = false
					}
				}
			}
			liveCount = 0
		default:
			err := fmt.Errorf("flowchart %q: node %d has unknown kind %d", c.Source.Name, pc, node.kind)
			for lane := 0; lane < n; lane++ {
				if l.live[lane] {
					out[lane] = Result{Steps: steps}
					l.errs[lane] = err
					l.live[lane] = false
				}
			}
			liveCount = 0
		}
	}
	for lane := 0; lane < n; lane++ {
		if l.errs[lane] != nil {
			return l.errs[lane]
		}
	}
	return nil
}

// kexpr is a columnar expression kernel: it evaluates its node in lanes
// [0, len(out)) and returns the node's column. A Var yields its register
// column and a Const its pre-filled column, both without a copy; every
// other node fills out and returns it.
type kexpr func(l *Lanes, out []int64) []int64

// kpred is a columnar predicate kernel: it fills out with the predicate's
// value in each lane.
type kpred func(l *Lanes, out []bool)

// kernels lowers one program's expressions and predicates to kernels,
// mirroring compileExpr and compilePred: the same operator guards, and
// both arms of a Cond and both sides of && and || evaluated. Scratch
// columns are numbered by position in the tree: a node evaluated at bases
// (ib, bb) writes its result to out and may overwrite int scratch column
// ib and above and bool scratch column bb and above, and out is never one
// of those. Only one instruction executes at a time, so all instructions
// share the scratch, which is as large as the largest single tree needs.
type kernels struct {
	slotOf  map[string]int
	consts  []int64
	constAt map[int64]int
	ints    int
	bools   int
}

func (k *kernels) use(ints, bools int) {
	k.ints, k.bools = max(k.ints, ints), max(k.bools, bools)
}

func (k *kernels) expr(e Expr, ib, bb int) (kexpr, error) {
	switch x := e.(type) {
	case Const:
		c, ok := k.constAt[int64(x)]
		if !ok {
			c = len(k.consts)
			k.constAt[int64(x)] = c
			k.consts = append(k.consts, int64(x))
		}
		return func(l *Lanes, out []int64) []int64 { return l.consts[c][:len(out)] }, nil
	case Var:
		s := k.slotOf[string(x)]
		return func(l *Lanes, out []int64) []int64 { return l.cols[s][:len(out)] }, nil
	case *Neg:
		sub, err := k.expr(x.X, ib, bb)
		if err != nil {
			return nil, err
		}
		return func(l *Lanes, out []int64) []int64 {
			a := sub(l, out)[:len(out)]
			for i := range out {
				out[i] = -a[i]
			}
			return out
		}, nil
	case *BitNot:
		sub, err := k.expr(x.X, ib, bb)
		if err != nil {
			return nil, err
		}
		return func(l *Lanes, out []int64) []int64 {
			a := sub(l, out)[:len(out)]
			for i := range out {
				out[i] = ^a[i]
			}
			return out
		}, nil
	case *Bin:
		if int(x.Op) >= len(binOpNames) {
			return nil, fmt.Errorf("compile: unknown binary op %d", x.Op)
		}
		if m, ok := modMask(x); ok {
			sub, err := k.expr(x.L, ib, bb)
			if err != nil {
				return nil, err
			}
			return func(l *Lanes, out []int64) []int64 {
				a := sub(l, out)[:len(out)]
				for i := range out {
					out[i] = modPow2(a[i], m)
				}
				return out
			}, nil
		}
		left, err := k.expr(x.L, ib+1, bb)
		if err != nil {
			return nil, err
		}
		right, err := k.expr(x.R, ib+2, bb)
		if err != nil {
			return nil, err
		}
		k.use(ib+2, 0)
		op := x.Op
		return func(l *Lanes, out []int64) []int64 {
			a := left(l, l.ints[ib][:len(out)])
			b := right(l, l.ints[ib+1][:len(out)])
			binCols(op, out, a, b)
			return out
		}, nil
	case *Cond:
		ka, err := k.expr(x.A, ib+1, bb)
		if err != nil {
			return nil, err
		}
		kb, err := k.expr(x.B, ib+2, bb)
		if err != nil {
			return nil, err
		}
		kp, err := k.pred(x.P, ib+2, bb+1)
		if err != nil {
			return nil, err
		}
		k.use(ib+2, bb+1)
		return func(l *Lanes, out []int64) []int64 {
			a := ka(l, l.ints[ib][:len(out)])[:len(out)]
			b := kb(l, l.ints[ib+1][:len(out)])[:len(out)]
			p := l.bools[bb][:len(out)]
			kp(l, p)
			for i := range out {
				if p[i] {
					out[i] = a[i]
				} else {
					out[i] = b[i]
				}
			}
			return out
		}, nil
	case *Call:
		if x.Resolved == nil || x.Resolved.Fn == nil {
			return nil, fmt.Errorf("compile: unresolved call to %q", x.Name)
		}
		args := make([]kexpr, len(x.Args))
		for j, a := range x.Args {
			f, err := k.expr(a, ib+j+1, bb)
			if err != nil {
				return nil, err
			}
			args[j] = f
		}
		k.use(ib+len(args), 0)
		fn := x.Resolved.Fn
		// The one lane-indexed node: fn runs only on live lanes, with a
		// fresh argument slice per call as in the scalar tier, because it
		// is arbitrary code that may keep the slice or count its calls.
		return func(l *Lanes, out []int64) []int64 {
			for j, arg := range args {
				col := l.ints[ib+j][:len(out)]
				copy(col, arg(l, col))
			}
			for lane := range out {
				if l.live[lane] {
					vals := make([]int64, len(args))
					for j := range vals {
						vals[j] = l.ints[ib+j][lane]
					}
					out[lane] = fn(vals)
				}
			}
			return out
		}, nil
	default:
		return nil, fmt.Errorf("compile: unknown expression type %T", e)
	}
}

func (k *kernels) pred(q Pred, ib, bb int) (kpred, error) {
	switch x := q.(type) {
	case BoolConst:
		v := bool(x)
		return func(l *Lanes, out []bool) {
			for i := range out {
				out[i] = v
			}
		}, nil
	case *Not:
		sub, err := k.pred(x.X, ib, bb)
		if err != nil {
			return nil, err
		}
		return func(l *Lanes, out []bool) {
			sub(l, out)
			for i, v := range out {
				out[i] = !v
			}
		}, nil
	case *AndP:
		return k.logic(x.L, x.R, false, ib, bb)
	case *OrP:
		return k.logic(x.L, x.R, true, ib, bb)
	case *Cmp:
		if int(x.Op) >= len(cmpOpNames) {
			return nil, fmt.Errorf("compile: unknown comparison op %d", x.Op)
		}
		left, err := k.expr(x.L, ib+1, bb)
		if err != nil {
			return nil, err
		}
		right, err := k.expr(x.R, ib+2, bb)
		if err != nil {
			return nil, err
		}
		k.use(ib+2, 0)
		op := x.Op
		return func(l *Lanes, out []bool) {
			a := left(l, l.ints[ib][:len(out)])
			b := right(l, l.ints[ib+1][:len(out)])
			cmpCols(op, out, a, b)
		}, nil
	default:
		return nil, fmt.Errorf("compile: unknown predicate type %T", q)
	}
}

// logic lowers && (or false) and || (or true). Both sides are evaluated
// in every lane, as in the scalar tier.
func (k *kernels) logic(lq, rq Pred, or bool, ib, bb int) (kpred, error) {
	left, err := k.pred(lq, ib, bb)
	if err != nil {
		return nil, err
	}
	right, err := k.pred(rq, ib, bb+1)
	if err != nil {
		return nil, err
	}
	k.use(0, bb+1)
	return func(l *Lanes, out []bool) {
		left(l, out)
		r := l.bools[bb][:len(out)]
		right(l, r)
		for i := range out {
			if or {
				out[i] = out[i] || r[i]
			} else {
				out[i] = out[i] && r[i]
			}
		}
	}, nil
}

// binCols sets out[i] = a[i] op b[i]. out may alias a or b.
func binCols(op BinOp, out, a, b []int64) {
	a, b = a[:len(out)], b[:len(out)]
	switch op {
	case OpAdd:
		for i := range out {
			out[i] = a[i] + b[i]
		}
	case OpSub:
		for i := range out {
			out[i] = a[i] - b[i]
		}
	case OpMul:
		for i := range out {
			out[i] = a[i] * b[i]
		}
	case OpDiv:
		for i := range out {
			x, y := a[i], b[i]
			switch {
			case y == 0:
				out[i] = 0
			case x == math.MinInt64 && y == -1:
				out[i] = math.MinInt64
			default:
				out[i] = x / y
			}
		}
	case OpMod:
		for i := range out {
			x, y := a[i], b[i]
			switch {
			case y == 0, x == math.MinInt64 && y == -1:
				out[i] = 0
			default:
				out[i] = x % y
			}
		}
	case OpAnd:
		for i := range out {
			out[i] = a[i] & b[i]
		}
	case OpOr:
		for i := range out {
			out[i] = a[i] | b[i]
		}
	case OpXor:
		for i := range out {
			out[i] = a[i] ^ b[i]
		}
	case OpAndNot:
		for i := range out {
			out[i] = a[i] &^ b[i]
		}
	}
}

// cmpCols sets out[i] = a[i] op b[i].
func cmpCols(op CmpOp, out []bool, a, b []int64) {
	a, b = a[:len(out)], b[:len(out)]
	switch op {
	case CmpEq:
		for i := range out {
			out[i] = a[i] == b[i]
		}
	case CmpNe:
		for i := range out {
			out[i] = a[i] != b[i]
		}
	case CmpLt:
		for i := range out {
			out[i] = a[i] < b[i]
		}
	case CmpLe:
		for i := range out {
			out[i] = a[i] <= b[i]
		}
	case CmpGt:
		for i := range out {
			out[i] = a[i] > b[i]
		}
	case CmpGe:
		for i := range out {
			out[i] = a[i] >= b[i]
		}
	}
}

package flowchart

// This file is the rewrite stage between the parsed program and every
// compiled tier. Compile runs it once; the scalar closures (compileExpr,
// compilePred) and the batch kernels (ensureBatch) both lower its output,
// so each rewrite is paid for once per program and read on every tuple.
// The interpreter never sees it: Program.RunBudget stays the unrewritten
// operational semantics the compiled tiers are tested against.
//
// The rewrites keep every step where it was. Steps count boxes, not
// operators, and a rewritten box is either the same box with a simpler
// expression or a jump — a KindStart box in the middle of the program,
// which every run loop already executes as one step to its single
// successor. So values, step counts, violations and step-budget errors are
// exactly the parsed program's.

// simplify returns the program's nodes rewritten for lowering:
//
//   - constant-only subtrees fold to constants, using the operators' own
//     total Eval (foldExpr, foldPred);
//   - a decision whose predicate folds to a constant becomes a jump to
//     the taken arm;
//   - an assignment without a Call whose target is dead after it becomes
//     a jump (dropDeadStores).
//
// Unchanged subtrees are shared with the source program. slotOf must name
// a register slot for every variable the program mentions.
func simplify(p *Program, slotOf map[string]int) []Node {
	nodes := append([]Node(nil), p.Nodes...)
	for i := range nodes {
		n := &nodes[i]
		switch n.Kind {
		case KindAssign:
			n.Expr = foldExpr(n.Expr)
		case KindDecision:
			n.Cond = foldPred(n.Cond)
			if b, ok := n.Cond.(BoolConst); ok {
				next := n.False
				if b {
					next = n.True
				}
				*n = jump(n, next)
			}
		}
	}
	dropDeadStores(nodes, slotOf, slotOf[p.OutputVar()])
	return nodes
}

// foldExpr folds the constant-only subtrees of e and returns e itself when
// nothing below it changed. An ite whose predicate folds keeps the taken
// arm only when neither arm holds a Call. A Call is never folded or
// dropped: a registered Func is arbitrary code that may count its calls.
func foldExpr(e Expr) Expr {
	switch x := e.(type) {
	case *Neg:
		sub := foldExpr(x.X)
		if c, ok := sub.(Const); ok {
			return Const((&Neg{X: c}).Eval(nil))
		}
		if sub != x.X {
			return &Neg{X: sub}
		}
	case *BitNot:
		sub := foldExpr(x.X)
		if c, ok := sub.(Const); ok {
			return Const((&BitNot{X: c}).Eval(nil))
		}
		if sub != x.X {
			return &BitNot{X: sub}
		}
	case *Bin:
		l, r := foldExpr(x.L), foldExpr(x.R)
		_, lc := l.(Const)
		_, rc := r.(Const)
		if lc && rc {
			return Const((&Bin{Op: x.Op, L: l, R: r}).Eval(nil))
		}
		if l != x.L || r != x.R {
			return &Bin{Op: x.Op, L: l, R: r}
		}
	case *Cond:
		p, a, b := foldPred(x.P), foldExpr(x.A), foldExpr(x.B)
		if v, ok := p.(BoolConst); ok && !hasCall(a) && !hasCall(b) {
			if v {
				return a
			}
			return b
		}
		if p != x.P || a != x.A || b != x.B {
			return &Cond{P: p, A: a, B: b}
		}
	case *Call:
		args := make([]Expr, len(x.Args))
		changed := false
		for i, a := range x.Args {
			args[i] = foldExpr(a)
			changed = changed || args[i] != a
		}
		if changed {
			return &Call{Name: x.Name, Args: args, Resolved: x.Resolved}
		}
	}
	return e
}

// foldPred is foldExpr for predicates.
func foldPred(q Pred) Pred {
	switch x := q.(type) {
	case *Cmp:
		l, r := foldExpr(x.L), foldExpr(x.R)
		_, lc := l.(Const)
		_, rc := r.(Const)
		if lc && rc {
			return BoolConst((&Cmp{Op: x.Op, L: l, R: r}).Eval(nil))
		}
		if l != x.L || r != x.R {
			return &Cmp{Op: x.Op, L: l, R: r}
		}
	case *Not:
		sub := foldPred(x.X)
		if b, ok := sub.(BoolConst); ok {
			return !b
		}
		if sub != x.X {
			return &Not{X: sub}
		}
	case *AndP:
		l, r := foldPred(x.L), foldPred(x.R)
		lb, lok := l.(BoolConst)
		rb, rok := r.(BoolConst)
		if lok && rok {
			return lb && rb
		}
		if l != x.L || r != x.R {
			return &AndP{L: l, R: r}
		}
	case *OrP:
		l, r := foldPred(x.L), foldPred(x.R)
		lb, lok := l.(BoolConst)
		rb, rok := r.(BoolConst)
		if lok && rok {
			return lb || rb
		}
		if l != x.L || r != x.R {
			return &OrP{L: l, R: r}
		}
	}
	return q
}

// hasCall reports whether e contains a Call.
func hasCall(e Expr) bool {
	return visitExpr(e, func(string) {})
}

// visitExpr calls visit on each variable e reads, left to right, and
// reports whether e contains a Call.
func visitExpr(e Expr, visit func(string)) bool {
	switch x := e.(type) {
	case Var:
		visit(string(x))
	case *Neg:
		return visitExpr(x.X, visit)
	case *BitNot:
		return visitExpr(x.X, visit)
	case *Bin:
		l := visitExpr(x.L, visit)
		return visitExpr(x.R, visit) || l
	case *Cond:
		p := visitPred(x.P, visit)
		a := visitExpr(x.A, visit)
		return visitExpr(x.B, visit) || p || a
	case *Call:
		for _, a := range x.Args {
			visitExpr(a, visit)
		}
		return true
	}
	return false
}

// visitPred is visitExpr for predicates.
func visitPred(q Pred, visit func(string)) bool {
	switch x := q.(type) {
	case *Cmp:
		l := visitExpr(x.L, visit)
		return visitExpr(x.R, visit) || l
	case *Not:
		return visitPred(x.X, visit)
	case *AndP:
		l := visitPred(x.L, visit)
		return visitPred(x.R, visit) || l
	case *OrP:
		l := visitPred(x.L, visit)
		return visitPred(x.R, visit) || l
	}
	return false
}

// dropDeadStores turns every Call-free assignment whose target is dead
// after it into a jump. Liveness runs backward over register slots, one
// bitset of words per node: a non-violating halt reads the output slot, a
// violation halt reads nothing, and an assignment reads its expression's
// variables only while its target is live after it (or it holds a Call,
// which is always kept). That last rule lets a chain of temporaries that
// only feed each other die together.
func dropDeadStores(nodes []Node, slotOf map[string]int, output int) {
	words := (len(slotOf) + 63) / 64
	uses := make([]uint64, len(nodes)*words)
	live := make([]uint64, len(nodes)*words) // live before each node
	calls := make([]bool, len(nodes))
	targets := make([]int, len(nodes))
	var use []uint64
	mark := func(v string) {
		s := slotOf[v]
		use[s/64] |= 1 << (s % 64)
	}
	for i := range nodes {
		n := &nodes[i]
		use = uses[i*words : (i+1)*words]
		switch n.Kind {
		case KindAssign:
			calls[i] = visitExpr(n.Expr, mark)
			targets[i] = slotOf[n.Target]
		case KindDecision:
			visitPred(n.Cond, mark)
		case KindHalt:
			if !n.Violation {
				use[output/64] |= 1 << (output % 64)
			}
		}
	}
	out := make([]uint64, words)
	liveOut := func(i int) {
		clear(out)
		n := &nodes[i]
		succs := [2]NodeID{NoNode, NoNode}
		switch n.Kind {
		case KindStart, KindAssign:
			succs[0] = n.Next
		case KindDecision:
			succs = [2]NodeID{n.True, n.False}
		}
		for _, s := range succs {
			if s != NoNode {
				for w, v := range live[int(s)*words : (int(s)+1)*words] {
					out[w] |= v
				}
			}
		}
	}
	isLive := func(s int) bool { return out[s/64]&(1<<(s%64)) != 0 }
	for changed := true; changed; {
		changed = false
		for i := len(nodes) - 1; i >= 0; i-- {
			liveOut(i)
			switch nodes[i].Kind {
			case KindAssign:
				t := targets[i]
				if !calls[i] && !isLive(t) {
					break // a dead store reads nothing
				}
				out[t/64] &^= 1 << (t % 64)
				fallthrough
			case KindDecision, KindHalt:
				for w, v := range uses[i*words : (i+1)*words] {
					out[w] |= v
				}
			}
			for w, v := range live[i*words : (i+1)*words] {
				if v != out[w] {
					live[i*words+w] = out[w]
					changed = true
				}
			}
		}
	}
	for i := range nodes {
		if nodes[i].Kind == KindAssign && !calls[i] {
			if liveOut(i); !isLive(targets[i]) {
				nodes[i] = jump(&nodes[i], nodes[i].Next)
			}
		}
	}
}

// jump is a box that costs one step and moves to next: a start box, which
// every run loop already executes that way.
func jump(n *Node, next NodeID) Node {
	return Node{Kind: KindStart, Label: n.Label, Next: next}
}

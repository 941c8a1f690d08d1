package flowchart

import (
	"errors"
	"testing"
)

// grid2 is the 2-ary grid [lo, hi]² as checkTiers takes it: one outer
// coordinate per row, and the innermost axis.
func grid2(lo, hi int64) (outer [][]int64, last []int64) {
	for v := lo; v <= hi; v++ {
		outer = append(outer, []int64{v})
		last = append(last, v)
	}
	return outer, last
}

// The edge cases the snapshot stack's first-touch rule calls out on the
// innermost axis: late single read, re-read inputs, reads under
// data-dependent branches, branching on the innermost input itself,
// writing the innermost input before reading it, never touching it, and
// the output variable being the innermost input. checkTiers walks each
// grid on the stack and on its per-stride composition with
// RunBatchFromStack.
func TestSnapshotDifferentialEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"late-read", `
program latereads
inputs x1 x2
    i := x1 & 7
Loop: if i == 0 goto Done else Body
Body: i := i - 1
      goto Loop
Done: y := x2
      halt
`},
		{"reread", `
program reread
inputs x1 x2
    a := x2 + 1
    b := x2 * a
    y := b + x1 + x2
    halt
`},
		{"read-under-branch", `
program branchread
inputs x1 x2
    if x1 == 0 goto Zero else NonZero
Zero:    y := x2
         halt
NonZero: y := x1
         halt
`},
		{"branch-on-innermost", `
program branchinner
inputs x1 x2
    if x2 > 0 goto Pos else NonPos
Pos:    y := x2 + x1
        halt
NonPos: y := x1 - x2
        halt
`},
		{"write-before-read", `
program deadinput
inputs x1 x2
    x2 := x1 + 1
    y := x2 * 2
    halt
`},
		{"never-touched", `
program untouched
inputs x1 x2
    y := x1 * 3
    halt
`},
		{"loop-on-innermost", `
program loopinner
inputs x1 x2
    i := x2 & 3
Loop: if i == 0 goto Done else Body
Body: i := i - 1
      goto Loop
Done: y := x1
      halt
`},
		{"output-is-innermost", `
program outinput
inputs x1 y
    r := x1
    halt
`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			outer, last := grid2(-2, 3)
			checkTiers(t, MustParse(tc.src), outer, last, DefaultMaxSteps, nil)
		})
	}
}

// TestSnapshotStepLimit covers the maxSteps-exhaustion rules: a budget
// that dies before the innermost input is ever touched leaves the
// stack's innermost entry invalid, so a stride cannot resume from it
// (ErrNoSnapshot, and the caller falls back), while a budget that dies
// after the capture point replays to the identical ErrStepLimit at the
// identical step count.
func TestSnapshotStepLimit(t *testing.T) {
	// The loop spins on x1 (prefix), then reads x2; budget 5 dies inside
	// the prefix, budget 1000 dies never.
	pre := MustParse(`
program prefixspin
inputs x1 x2
    i := x1 & 63
Loop: if i == 0 goto Done else Body
Body: i := i - 1
      goto Loop
Done: y := x2
      halt
`)
	t.Run("exhaust-before-capture", func(t *testing.T) {
		c, err := pre.Compile()
		if err != nil {
			t.Fatal(err)
		}
		lanes, err := c.NewLanes(2)
		if err != nil {
			t.Fatal(err)
		}
		st := c.NewSnapshotStack()
		if _, _, err := st.Run([]int64{63, 1}, 0, 5); !errors.Is(err, ErrStepLimit) {
			t.Fatalf("err = %v, want ErrStepLimit", err)
		}
		if err := c.RunBatchFromStack(lanes, st, []int64{2, 3}, 5, make([]Result, 2)); !errors.Is(err, ErrNoSnapshot) {
			t.Fatalf("RunBatchFromStack err = %v, want ErrNoSnapshot", err)
		}
	})
	t.Run("exhaust-after-capture", func(t *testing.T) {
		// The tail spins on x2, so a tight budget dies after the capture
		// point; the replay must report the same error and step count as a
		// fresh run.
		post := MustParse(`
program tailspin
inputs x1 x2
    a := x1 + 1
    i := x2 & 63
Loop: if i == 0 goto Done else Body
Body: i := i - 1
      goto Loop
Done: y := a
      halt
`)
		outer, last := grid2(0, 5)
		checkTiers(t, post, outer, last, 20, nil)
	})
	t.Run("differential-under-budget", func(t *testing.T) {
		outer, last := grid2(0, 5)
		checkTiers(t, pre, outer, last, 9, nil)
	})
}

// TestSnapshotArityZero: no innermost input exists, so the stack never
// holds a capture a stride could resume from, but its runs still behave
// like RunReuse.
func TestSnapshotArityZero(t *testing.T) {
	c, err := MustParse("program noinputs\n    y := 41 + 1\n    halt\n").Compile()
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := c.NewLanes(1)
	if err != nil {
		t.Fatal(err)
	}
	st := c.NewSnapshotStack()
	if res, _, err := st.Run(nil, 0, DefaultMaxSteps); err != nil || res.Value != 42 {
		t.Fatalf("res = %+v, err = %v", res, err)
	}
	if err := c.RunBatchFromStack(lanes, st, []int64{0}, DefaultMaxSteps, make([]Result, 1)); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("RunBatchFromStack err = %v, want ErrNoSnapshot", err)
	}
}

// TestSnapshotWrongProgram: a snapshot stack stays bound to the Compiled
// that created it; another program's strides cannot resume from it.
func TestSnapshotWrongProgram(t *testing.T) {
	a, err := MustParse("program a\ninputs x1\n    y := x1\n    halt\n").Compile()
	if err != nil {
		t.Fatal(err)
	}
	b, err := MustParse("program b\ninputs x1\n    y := x1\n    halt\n").Compile()
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := a.NewLanes(1)
	if err != nil {
		t.Fatal(err)
	}
	st := b.NewSnapshotStack()
	if _, _, err := st.Run([]int64{1}, 0, DefaultMaxSteps); err != nil {
		t.Fatal(err)
	}
	if err := a.RunBatchFromStack(lanes, st, []int64{1}, DefaultMaxSteps, make([]Result, 1)); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("RunBatchFromStack err = %v, want ErrNoSnapshot", err)
	}
}

// TestSnapshotViolationConstant: a violation halt reached without touching
// the innermost input is constant evidence — the rest of the row gets the
// recorded Λ without executing anything.
func TestSnapshotViolationConstant(t *testing.T) {
	p := MustParse(`
program lam
inputs x1 x2
    if x1 == 0 goto Ok else Bad
Ok:  y := x2
     halt
Bad: violation "leak"
`)
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	st := c.NewSnapshotStack()
	res, _, err := st.Run([]int64{1, 7}, 0, DefaultMaxSteps)
	if err != nil || !res.Violation {
		t.Fatalf("res = %+v, err = %v, want violation", res, err)
	}
	got, op, err := st.Run([]int64{1, -5}, 1, DefaultMaxSteps)
	if err != nil || got != res || op.Kind != StackConstant {
		t.Fatalf("next tuple = %+v (%v), err = %v, want constant %+v", got, op, err, res)
	}
	// And the full differential, which mixes both branches per row.
	outer, last := grid2(-1, 2)
	checkTiers(t, p, outer, last, DefaultMaxSteps, nil)
}

// TestInputTrace pins the static trace on a program where it is easy to
// read off: x1 is touched by the first assignment, x2 only by the last
// one before the halt, and the non-violating halt reads the output
// variable.
func TestInputTrace(t *testing.T) {
	p := MustParse(`
program traced
inputs x1 x2
    a := x1 + 1
    y := x2
    halt
`)
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	trace := c.InputTrace()
	if len(trace) != 2 {
		t.Fatalf("trace has %d inputs, want 2", len(trace))
	}
	nodeOf := func(target string) int {
		for i := range p.Nodes {
			if p.Nodes[i].Kind == KindAssign && p.Nodes[i].Target == target {
				return i
			}
		}
		t.Fatalf("no assignment to %s", target)
		return -1
	}
	find := func(nodes []int, want int) bool {
		for _, n := range nodes {
			if n == want {
				return true
			}
		}
		return false
	}
	aNode, yNode := nodeOf("a"), nodeOf("y")
	if !find(trace[0], aNode) || find(trace[0], yNode) {
		t.Fatalf("x1 trace = %v, want assign-a node %d only", trace[0], aNode)
	}
	if !find(trace[1], yNode) || find(trace[1], aNode) {
		t.Fatalf("x2 trace = %v, want assign-y node %d, not %d", trace[1], yNode, aNode)
	}
}

package flowchart

import (
	"errors"
	"fmt"
	"testing"
)

// The handcrafted divergence-heavy programs: branches on the innermost
// input split lanes at every width, loops whose trip count is the
// innermost input make lanes leave the batch at different steps, and the
// snapshot edge cases (dead innermost input, output-is-input) cross with
// batching. Every width runs on RunBatch (memo=false) and on the snapshot
// stack's per-stride composition (memo=true), against the interpreter.
func TestBatchDifferentialPrograms(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"diverge-first-instruction", `
program divergefirst
inputs x1 x2
    if x2 > 0 goto Pos else NonPos
Pos:    y := x2 + x1
        halt
NonPos: y := x1 - x2
        halt
`},
		{"diverge-three-way", `
program divergethree
inputs x1 x2
    if x2 > 1 goto Hi else Rest
Rest: if x2 < 0 goto Lo else Mid
Hi:  y := x1 + 100
     halt
Mid: y := x1
     halt
Lo:  y := x1 - 100
     halt
`},
		{"loop-on-innermost", `
program loopinner
inputs x1 x2
    i := x2 & 7
    y := x1
Loop: if i == 0 goto Done else Body
Body: i := i - 1
      y := y + 2
      goto Loop
Done: halt
`},
		{"straightline-vector", `
program vec
inputs x1 x2
    a := x2 + 3
    b := a * x1
    c := b & 255
    y := c ^ a
    halt
`},
		{"guarded-division", `
program guarded
inputs x1 x2
    y := x1 / x2
    y := y + x1 % x2
    halt
`},
		{"violation-on-branch", `
program viol
inputs x1 x2
    if x2 == 2 goto Bad else Ok
Bad: violation "x2 is two"
Ok:  y := x1 + x2
     halt
`},
		{"dead-innermost", `
program deadinput
inputs x1 x2
    x2 := x1 + 1
    y := x2 * 2
    halt
`},
		{"output-is-innermost", `
program outinput
inputs x1 y
    r := x1
    halt
`},
	}
	cases = append(cases, kernelShapes...)
	widths := []int{1, 2, 3, 8, 32}
	outer, last := grid2(-2, 3)
	for _, tc := range cases {
		p := MustParse(tc.src)
		c, err := p.Compile()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := interpret(p, outer, last, DefaultMaxSteps)
		for _, w := range widths {
			for _, memo := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/w%d/memo=%v", tc.name, w, memo), func(t *testing.T) {
					checkStrides(t, p, c, outer, last, want, w, memo, DefaultMaxSteps)
				})
			}
		}
	}
}

// kernelShapes covers every node the columnar kernels lower: constants on
// the left of an operator, nested ite with compare predicates, unary -
// and ^, !, && and ||, true and false as decisions, and / and % by zero
// and MinInt64 / -1. In deaddiv the x2 == 0 lane leaves the batch before
// the divisions, so its zero divisor flows through them as a dead lane.
// Both fuzz corpora start from these sources too.
var kernelShapes = []struct{ name, src string }{
	{"const-left-product", `
program constleft
inputs x1 x2
    r0 := x2 - 1
    y := -2 * r0
    y := y + 3 * x1 - -4 * x2 + 5 % 3
    halt
`},
	{"nested-ite-compare", `
program nestedite
inputs x1 x2
    r := ite(-2 * x2 < ite(x1 + -1 == 2 - x2, x1, x2), 3 % 4, ite(x1 != 0 * 3, x2, x1))
    y := ite(x2 >= r, ite(x1 <= x2, r - x1, r + x1), -r)
    halt
`},
	{"division-guards-dead-lanes", `
program deaddiv
inputs x1 x2
    m := ^9223372036854775807
    if x2 == 0 goto Zero else Rest
Zero: y := x1
      halt
Rest: y := x1 / x2 + x1 % x2
      y := y + m / ite(x2 > 0, -1, x2 - x2) + m % ite(x2 < 0, -1, 0)
      y := y + x1 / (x2 - 1) + x1 % (x2 + 1) + m / x2
      halt
`},
	{"unary-and-logic", `
program unarylogic
inputs x1 x2
    a := -x2
    b := ^x1
    c := -(x1 + x2) & ^(x2 - 1)
    if !(a < b) && (c != 0 || x2 == 1) goto T else F
T:  y := a + b
    if true goto U else F
U:  y := y - c
    halt
F:  if false goto T else G
G:  y := c | -a
    halt
`},
}

func kernelShapeSources() []string {
	var srcs []string
	for _, k := range kernelShapes {
		srcs = append(srcs, k.src)
	}
	return srcs
}

// TestBatchCallRunsOnLiveLanesOnly pins the one lane-indexed kernel: a
// registered function inside a branch only some lanes take must see the
// live lanes' arguments and nothing else — the same calls, in number, that
// the scalar engine makes. f rejects the non-positive arguments only the
// lanes that left the batch hold, and the nested call rejects what a stale
// scratch column would feed it.
func TestBatchCallRunsOnLiveLanesOnly(t *testing.T) {
	calls := 0
	f := &Func{Name: "f", Arity: 1, Fn: func(a []int64) int64 {
		calls++
		if a[0] <= 0 {
			t.Errorf("f called with %d, which no live lane holds", a[0])
		}
		return a[0] + 1
	}}
	p, err := ParseWithOptions(`
program calls
inputs x1 x2
    if x2 > 0 goto Pos else NonPos
Pos:    y := f(x2) * x1 + f(f(x2 + x1))
        halt
NonPos: y := x1 - x2
        halt
`, ParseOptions{Funcs: []*Func{f}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var inner []int64
	for v := int64(-3); v <= 12; v++ {
		inner = append(inner, v)
	}
	regs := make([]int64, c.Slots())
	for width := 1; width <= 16; width++ {
		lanes, err := c.NewLanes(width)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Result, width)
		for _, x1 := range []int64{1, 2} {
			for j := 0; j < len(inner); j += width {
				last := inner[j:min(j+width, len(inner))]
				calls = 0
				want := make([]Result, len(last))
				for i, v := range last {
					if want[i], err = c.RunReuse(regs, []int64{x1, v}, DefaultMaxSteps); err != nil {
						t.Fatal(err)
					}
				}
				scalarCalls := calls
				calls = 0
				if err := c.RunBatch(lanes, []int64{x1, last[0]}, last, DefaultMaxSteps, out[:len(last)]); err != nil {
					t.Fatal(err)
				}
				if calls != scalarCalls {
					t.Fatalf("width %d x1=%d lanes %v: %d calls, scalar makes %d", width, x1, last, calls, scalarCalls)
				}
				for i := range last {
					if out[i] != want[i] {
						t.Fatalf("width %d x1=%d x2=%d: batch = %+v, scalar = %+v", width, x1, last[i], out[i], want[i])
					}
				}
			}
		}
	}
}

// TestBatchKernelsAllocFree pins that a stride of a Call-free program
// allocates nothing, from scratch and from a snapshot stack's capture.
func TestBatchKernelsAllocFree(t *testing.T) {
	c, err := MustParse(progPool).Compile()
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := c.NewLanes(16)
	if err != nil {
		t.Fatal(err)
	}
	in := []int64{2, -1, 0}
	last := make([]int64, 16)
	for i := range last {
		last[i] = int64(i) - 4
	}
	out := make([]Result, len(last))
	st := c.NewSnapshotStack()
	if _, _, err := st.Run(in, 0, DefaultMaxSteps); err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"RunBatch":          func() error { return c.RunBatch(lanes, in, last, DefaultMaxSteps, out) },
		"RunBatchFromStack": func() error { return c.RunBatchFromStack(lanes, st, last, DefaultMaxSteps, out) },
	} {
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := testing.AllocsPerRun(100, func() { _ = run() }); n != 0 {
			t.Errorf("%s: %v allocs per stride, want 0", name, n)
		}
	}
	if lanes.Stats.Diverged == 0 {
		t.Error("no lane diverged; the program no longer exercises extraction")
	}
}

// TestSnapshotStackRowAllocs pins the stride tier's stack: Run allocates
// nothing on an odometer row it has never seen. Each run walks a fresh
// row.
func TestSnapshotStackRowAllocs(t *testing.T) {
	c, err := MustParse(progPool).Compile()
	if err != nil {
		t.Fatal(err)
	}
	st := c.NewSnapshotStack()
	in := make([]int64, 3)
	var row int64
	walk := func() {
		row++
		in[0], in[1] = row, -row
		for x3 := int64(0); x3 < 4; x3++ {
			in[2] = x3
			carry := 2
			if x3 == 0 {
				carry = 0
			}
			if _, _, err := st.Run(in, carry, DefaultMaxSteps); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := testing.AllocsPerRun(100, walk); n != 0 {
		t.Errorf("%v allocs per row, want 0", n)
	}
}

// TestBatchAllLanesDiverge drives a stride where every live lane leaves
// the batch at the first decision: lanes alternate branch directions, so
// whichever side stays, the other half is extracted scalar immediately —
// and with two lanes of opposite sign the tie rule (true side stays)
// decides.
func TestBatchAllLanesDiverge(t *testing.T) {
	p := MustParse(`
program split
inputs x1 x2
    if x2 > 0 goto Pos else NonPos
Pos:    y := x1 + x2
        halt
NonPos: y := x1 - x2
        halt
`)
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := c.NewLanes(8)
	if err != nil {
		t.Fatal(err)
	}
	last := []int64{1, -1, 2, -2, 3, -3, 4, -4}
	out := make([]Result, len(last))
	if err := c.RunBatch(lanes, []int64{7, last[0]}, last, DefaultMaxSteps, out); err != nil {
		t.Fatalf("RunBatch: %v", err)
	}
	regs := make([]int64, c.Slots())
	for i, v := range last {
		want, err := c.RunReuse(regs, []int64{7, v}, DefaultMaxSteps)
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("lane %d (x2=%d): batch = %+v, scalar = %+v", i, v, out[i], want)
		}
	}
}

// TestBatchStepLimit exercises budget exhaustion mid-batch: a loop whose
// trip count is the innermost input makes short lanes halt and long lanes
// run out of budget, in the same batch. The batch must return ErrStepLimit
// (the first lane-ordered error) exactly when the scalar runs would, and
// lanes that halted before exhaustion keep their exact results.
func TestBatchStepLimit(t *testing.T) {
	p := MustParse(`
program spin
inputs x1 x2
    i := x2
    y := x1
Loop: if i == 0 goto Done else Body
Body: i := i - 1
      goto Loop
Done: halt
`)
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := c.NewLanes(4)
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]int64, c.Slots())
	for _, budget := range []int64{1, 5, 10, 20, 100} {
		last := []int64{0, 2, 30, 1}
		out := make([]Result, len(last))
		batchErr := c.RunBatch(lanes, []int64{1, last[0]}, last, budget, out)
		var wantErr error
		for lane, v := range last {
			res, err := c.RunReuse(regs, []int64{1, v}, budget)
			if err != nil {
				wantErr = err
				break
			}
			if batchErr == nil && out[lane] != res {
				t.Fatalf("budget %d lane %d: batch = %+v, scalar = %+v", budget, lane, out[lane], res)
			}
		}
		if (batchErr == nil) != (wantErr == nil) || errors.Is(batchErr, ErrStepLimit) != errors.Is(wantErr, ErrStepLimit) {
			t.Fatalf("budget %d: batch err = %v, scalar err = %v", budget, batchErr, wantErr)
		}
	}
}

// TestBatchNarrowTail checks batches narrower than the allocated width —
// the sweep's chunk tails — including a single lane, and rejects the
// shapes the contract forbids (empty batch, batch wider than the lanes,
// mismatched result buffer, lanes from another program).
func TestBatchNarrowTail(t *testing.T) {
	p := MustParse(`
program tail
inputs x1 x2
    y := x1 * 10 + x2
    halt
`)
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := c.NewLanes(8)
	if err != nil {
		t.Fatal(err)
	}
	regs := make([]int64, c.Slots())
	for n := 1; n <= 8; n++ {
		last := make([]int64, n)
		for i := range last {
			last[i] = int64(i)
		}
		out := make([]Result, n)
		if err := c.RunBatch(lanes, []int64{3, last[0]}, last, DefaultMaxSteps, out); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range last {
			want, err := c.RunReuse(regs, []int64{3, last[i]}, DefaultMaxSteps)
			if err != nil {
				t.Fatal(err)
			}
			if out[i] != want {
				t.Fatalf("n=%d lane %d: batch = %+v, scalar = %+v", n, i, out[i], want)
			}
		}
	}
	if err := c.RunBatch(lanes, []int64{3, 0}, nil, DefaultMaxSteps, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if err := c.RunBatch(lanes, []int64{3, 0}, make([]int64, 9), DefaultMaxSteps, make([]Result, 9)); err == nil {
		t.Fatal("batch wider than lane capacity accepted")
	}
	if err := c.RunBatch(lanes, []int64{3, 0}, make([]int64, 4), DefaultMaxSteps, make([]Result, 3)); err == nil {
		t.Fatal("mismatched result buffer accepted")
	}
	other, err := MustParse("program other\ninputs a b\n y := a + b\n halt\n").Compile()
	if err != nil {
		t.Fatal(err)
	}
	if err := other.RunBatch(lanes, []int64{1, 0}, make([]int64, 2), DefaultMaxSteps, make([]Result, 2)); err == nil {
		t.Fatal("lanes from another program accepted")
	}
	if _, err := c.NewLanes(0); err == nil {
		t.Fatal("zero-width lanes accepted")
	}
}

// TestBatchFromStackContract pins the stack entry point's edge cases: a
// stack with no capture is ErrNoSnapshot, and a constant innermost entry
// (the recording run never touched the innermost input) replicates its
// result into every lane.
func TestBatchFromStackContract(t *testing.T) {
	p := MustParse(`
program untouched
inputs x1 x2
    y := x1 * 3
    halt
`)
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := c.NewLanes(4)
	if err != nil {
		t.Fatal(err)
	}
	st := c.NewSnapshotStack()
	out := make([]Result, 3)
	if err := c.RunBatchFromStack(lanes, st, make([]int64, 3), DefaultMaxSteps, out); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("empty stack: err = %v, want ErrNoSnapshot", err)
	}
	want, _, err := st.Run([]int64{2, 0}, 0, DefaultMaxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunBatchFromStack(lanes, st, []int64{5, 6, 7}, DefaultMaxSteps, out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		if r != want {
			t.Fatalf("lane %d: %+v, want replicated %+v", i, r, want)
		}
	}
}

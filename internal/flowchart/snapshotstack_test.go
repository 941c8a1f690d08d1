package flowchart_test

import (
	"errors"
	"math/rand"
	"testing"

	"spm/internal/flowchart"
	"spm/internal/progen"
)

// mustCompile parses and compiles src or fails the test.
func mustCompile(t *testing.T, src string) *flowchart.Compiled {
	t.Helper()
	p, err := flowchart.Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	c, err := p.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return c
}

// sweepStack walks values in odometer order (innermost fastest), feeding
// the stack exact carry hints, and checks every Run against a fresh
// RunReuse. It returns the op-kind histogram of the walk.
func sweepStack(t *testing.T, c *flowchart.Compiled, st *flowchart.SnapshotStack, values [][]int64, maxSteps int64) map[flowchart.StackOpKind]int {
	t.Helper()
	k := len(values)
	idx := make([]int, k)
	in := make([]int64, k)
	for i := range in {
		in[i] = values[i][0]
	}
	fregs := make([]int64, c.Slots())
	ops := make(map[flowchart.StackOpKind]int)
	carry := 0
	for {
		wantRes, wantErr := c.RunReuse(fregs, in, maxSteps)
		gotRes, op, gotErr := st.Run(in, carry, maxSteps)
		ops[op.Kind]++
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("at %v (carry %d): err = %v, fresh err = %v", in, carry, gotErr, wantErr)
		}
		if gotErr == nil && gotRes != wantRes {
			t.Fatalf("at %v (carry %d, op %v): result = %+v, fresh = %+v", in, carry, op, gotRes, wantRes)
		}
		done := true
		for i := k - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(values[i]) {
				in[i] = values[i][idx[i]]
				carry = i
				done = false
				break
			}
			idx[i] = 0
			in[i] = values[i][0]
		}
		if done {
			return ops
		}
	}
}

// TestSnapshotStackConstantAxes: a program that never reads its inner
// input collapses the whole inner radix to constant answers — one full
// recording for the first outer value, one replay per further outer
// value, constants everywhere else.
func TestSnapshotStackConstantAxes(t *testing.T) {
	c := mustCompile(t, "inputs a b\n y := a + 1\n halt\n")
	st := c.NewSnapshotStack()
	values := [][]int64{{0, 1, 2, 3}, {10, 20, 30, 40, 50}}
	ops := sweepStack(t, c, st, values, flowchart.DefaultMaxSteps)
	if ops[flowchart.StackFull] != 1 {
		t.Errorf("full recordings = %d, want 1 (ops %v)", ops[flowchart.StackFull], ops)
	}
	if ops[flowchart.StackReplay] != 3 {
		t.Errorf("replays = %d, want 3 (ops %v)", ops[flowchart.StackReplay], ops)
	}
	if want := 4 * 4; ops[flowchart.StackConstant] != want {
		t.Errorf("constants = %d, want %d (ops %v)", ops[flowchart.StackConstant], want, ops)
	}
}

// TestSnapshotStackNeverReadAnything: a program reading no input at all
// answers the entire product with one execution.
func TestSnapshotStackNeverReadAnything(t *testing.T) {
	c := mustCompile(t, "inputs a b c\n y := 42\n halt\n")
	st := c.NewSnapshotStack()
	values := [][]int64{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}
	ops := sweepStack(t, c, st, values, flowchart.DefaultMaxSteps)
	if ops[flowchart.StackFull] != 1 {
		t.Errorf("full recordings = %d, want 1 (ops %v)", ops[flowchart.StackFull], ops)
	}
	if want := 27 - 1; ops[flowchart.StackConstant] != want {
		t.Errorf("constants = %d, want %d (ops %v)", ops[flowchart.StackConstant], want, ops)
	}
}

// TestSnapshotStackRowCollapse: rows whose captured state at the
// innermost capture point coincide (here, outer values congruent mod 2
// after `a := a % 2` shadows the input) reuse each other's tail results
// through the content-addressed row cache.
func TestSnapshotStackRowCollapse(t *testing.T) {
	c := mustCompile(t, "inputs a b\n a := a % 2\n y := a * 100 + b\n halt\n")
	st := c.NewSnapshotStack()
	values := [][]int64{{0, 1, 2, 3, 4, 5}, {7, 8, 9}}
	ops := sweepStack(t, c, st, values, flowchart.DefaultMaxSteps)
	// Rows a=0 and a=1 execute their tails (one full + replays); rows
	// a=2..5 land on the two cached row states and answer every tuple
	// from the cache.
	if want := 4 * 3; ops[flowchart.StackRowHit] != want {
		t.Errorf("row hits = %d, want %d (ops %v)", ops[flowchart.StackRowHit], want, ops)
	}
	rows, results := st.RowStats()
	if rows != 2 {
		t.Errorf("distinct row states = %d, want 2", rows)
	}
	if results != 6 {
		t.Errorf("cached results = %d, want 6", results)
	}
}

// TestSnapshotStackUnreadInputExcluded: an input no instruction touches
// must not poison the row hash — rows differing only in that coordinate
// share one cached state.
func TestSnapshotStackUnreadInputExcluded(t *testing.T) {
	c := mustCompile(t, "inputs dead b\n y := b * 2\n halt\n")
	st := c.NewSnapshotStack()
	values := [][]int64{{0, 1, 2, 3}, {5, 6}}
	ops := sweepStack(t, c, st, values, flowchart.DefaultMaxSteps)
	rows, _ := st.RowStats()
	if rows != 1 {
		t.Errorf("distinct row states = %d, want 1 (dead input leaked into the hash); ops %v", rows, ops)
	}
	if want := 3 * 2; ops[flowchart.StackRowHit] != want {
		t.Errorf("row hits = %d, want %d (ops %v)", ops[flowchart.StackRowHit], want, ops)
	}
}

// TestSnapshotStackReadUnderBranch: an outer input read only under a
// branch on the inner input — the capture points sit before the
// decision, so replays at any depth reinstall both coordinates
// correctly.
func TestSnapshotStackReadUnderBranch(t *testing.T) {
	c := mustCompile(t, "inputs a b\n if b > 0 goto R else S\nR: y := a\n halt\nS: y := 0 - a\n halt\n")
	st := c.NewSnapshotStack()
	values := [][]int64{{-3, -1, 0, 2, 4}, {-1, 0, 1, 2}}
	sweepStack(t, c, st, values, flowchart.DefaultMaxSteps)
}

// TestSnapshotStackWriteBeforeRead: the program shadows an input with an
// assignment before reading it; replays must restore the captured
// (pre-shadow) state, not the shadowed one.
func TestSnapshotStackWriteBeforeRead(t *testing.T) {
	c := mustCompile(t, "inputs a b\n a := a + b\n y := a\n halt\n")
	st := c.NewSnapshotStack()
	values := [][]int64{{1, 2, 3}, {10, 20, 30}}
	sweepStack(t, c, st, values, flowchart.DefaultMaxSteps)
}

// TestSnapshotStackBudgetExhaustion: a budget that dies between the
// outer and inner capture points leaves the inner entries invalid, and
// every tuple falls back exactly as a fresh run would — including the
// error.
func TestSnapshotStackBudgetExhaustion(t *testing.T) {
	src := "inputs a b\n i := a\nL: i := i - 1\n if i > 0 goto L else D\nD: y := b\n halt\n"
	c := mustCompile(t, src)
	values := [][]int64{{1, 100, 2}, {0, 1, 2}}
	for _, budget := range []int64{4, 8, 64, flowchart.DefaultMaxSteps} {
		st := c.NewSnapshotStack()
		sweepStack(t, c, st, values, budget)
	}
}

// TestSnapshotStackBudgetChange: cached row results must not leak across
// step-budget regimes — the same sweep at a different budget re-executes
// rather than row-hitting stale entries.
func TestSnapshotStackBudgetChange(t *testing.T) {
	c := mustCompile(t, "inputs a b\n a := a % 2\n y := a + b\n halt\n")
	st := c.NewSnapshotStack()
	values := [][]int64{{0, 2}, {0, 1}}
	sweepStack(t, c, st, values, flowchart.DefaultMaxSteps)
	// Same walk, fresh carries, different budget: results identical (the
	// program is far under either budget), but none may come from the
	// other regime's cache without re-verification.
	sweepStack(t, c, st, values, flowchart.DefaultMaxSteps/2)
}

// TestSnapshotStackUnderReportedCarry: a carry lower than the true
// prefix agreement is always safe — it only wastes reuse.
func TestSnapshotStackUnderReportedCarry(t *testing.T) {
	c := mustCompile(t, "inputs a b c\n y := a * 100 + b * 10 + c\n halt\n")
	st := c.NewSnapshotStack()
	fregs := make([]int64, c.Slots())
	in := []int64{1, 2, 3}
	r := rand.New(rand.NewSource(11))
	prev := []int64{0, 0, 0}
	for step := 0; step < 200; step++ {
		for i := range in {
			if r.Intn(3) == 0 {
				in[i] = int64(r.Intn(4))
			}
		}
		agree := 0
		for agree < len(in) && in[agree] == prev[agree] {
			agree++
		}
		if agree > len(in)-1 {
			agree = len(in) - 1
		}
		carry := r.Intn(agree + 1)
		want, werr := c.RunReuse(fregs, in, flowchart.DefaultMaxSteps)
		got, op, gerr := st.Run(in, carry, flowchart.DefaultMaxSteps)
		if werr != nil || gerr != nil {
			t.Fatalf("unexpected error: %v / %v", werr, gerr)
		}
		if got != want {
			t.Fatalf("step %d at %v (carry %d, op %v): got %+v, want %+v", step, in, carry, op, got, want)
		}
		copy(prev, in)
	}
}

// TestSnapshotStackInvalidate: after Invalidate the next Run records from
// scratch regardless of the carry hint.
func TestSnapshotStackInvalidate(t *testing.T) {
	c := mustCompile(t, "inputs a b\n y := a + b\n halt\n")
	st := c.NewSnapshotStack()
	in := []int64{1, 2}
	if _, op, err := st.Run(in, 0, flowchart.DefaultMaxSteps); err != nil || op.Kind != flowchart.StackFull {
		t.Fatalf("first run: op %v, err %v", op, err)
	}
	if st.Depth() != 1 {
		t.Fatalf("Depth after record = %d, want 1", st.Depth())
	}
	st.Invalidate()
	if st.Depth() != -1 {
		t.Fatalf("Depth after Invalidate = %d, want -1", st.Depth())
	}
	in[1] = 3
	if _, op, err := st.Run(in, 1, flowchart.DefaultMaxSteps); err != nil || op.Kind != flowchart.StackFull {
		t.Fatalf("post-invalidate run: op %v, err %v (carry must not resurrect entries)", op, err)
	}
}

// TestSnapshotStackNullary: arity-0 programs have no per-axis trace; the
// stack degrades to plain full runs.
func TestSnapshotStackNullary(t *testing.T) {
	c := mustCompile(t, "inputs\n y := 9\n halt\n")
	st := c.NewSnapshotStack()
	for i := 0; i < 3; i++ {
		res, op, err := st.Run(nil, 0, flowchart.DefaultMaxSteps)
		if err != nil || res.Value != 9 || op.Kind != flowchart.StackFull {
			t.Fatalf("run %d: res %+v, op %v, err %v", i, res, op, err)
		}
	}
}

// TestSnapshotStackArityMismatch mirrors the scalar runners' contract.
func TestSnapshotStackArityMismatch(t *testing.T) {
	c := mustCompile(t, "inputs a b\n y := a\n halt\n")
	st := c.NewSnapshotStack()
	if _, _, err := st.Run([]int64{1}, 0, flowchart.DefaultMaxSteps); !errors.Is(err, flowchart.ErrArity) {
		t.Fatalf("err = %v, want ErrArity", err)
	}
}

// TestSnapshotStackDifferentialProgen is the randomized half of the
// stack-validity story: generated programs re-read inputs, read them
// under data-dependent branches, and shadow them with assignments, and
// over a full odometer sweep with exact carries the stack must agree
// with fresh runs tuple for tuple. It also checks the walk actually
// exercised the stack (replays happened) rather than vacuously running
// everything in full.
func TestSnapshotStackDifferentialProgen(t *testing.T) {
	axis := []int64{-2, -1, 0, 1, 2}
	totalReplays := 0
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		arity := 2 + int(seed)%3
		p := progen.Generate(r, progen.DefaultConfig(arity))
		c, err := p.Compile()
		if err != nil {
			t.Fatalf("seed %d: Compile: %v", seed, err)
		}
		values := make([][]int64, arity)
		for i := range values {
			values[i] = axis
		}
		st := c.NewSnapshotStack()
		ops := sweepStack(t, c, st, values, flowchart.DefaultMaxSteps)
		totalReplays += ops[flowchart.StackReplay] + ops[flowchart.StackConstant] + ops[flowchart.StackRowHit]
	}
	if totalReplays == 0 {
		t.Error("no stack reuse across the whole corpus — the differential ran vacuously")
	}
}

// stackFuzzSeeds seeds FuzzSnapshotStackVsScalar with the adversarial
// shapes the stack's validity argument leans on: an input shadowed by a
// write before its read, an outer input read only under a branch on the
// inner one, and a burn loop that exhausts small step budgets between
// the two capture points.
var stackFuzzSeeds = []string{
	"inputs a b\n a := a + b\n y := a\n halt\n",
	"inputs a b\n if b > 0 goto R else S\nR: y := a\n halt\nS: y := 0 - a\n halt\n",
	"inputs a b\n i := a\nL: i := i - 1\n if i > 0 goto L else D\nD: y := b\n halt\n",
	"inputs a b\n y := a + 1\n halt\n",
	"inputs a b\n a := a % 2\n y := a * 100 + b\n halt\n",
}

// FuzzSnapshotStackVsScalar is the snapshot stack's semantic oracle: for
// any accepted program and any fuzz-chosen walk over a small domain —
// including under-reported carries, which the contract allows — every
// stack answer must match a fresh scalar run exactly, and errors must
// agree. This is the property the fixed-corpus differentials pin, checked
// on arbitrary programs and walks.
func FuzzSnapshotStackVsScalar(f *testing.F) {
	for i, s := range append(stackFuzzSeeds, flowchart.FuzzSeeds...) {
		f.Add(s, int64(i-2), int64(2*i+1), uint8(16*i+3), []byte{0, 3, 7, 0x85, 42, 0xff, 9})
		f.Add(s, int64(-1), int64(3), uint8(40), []byte{1, 2, 3, 4, 5})
	}
	f.Fuzz(func(t *testing.T, src string, base, stride int64, budgetSeed uint8, walk []byte) {
		p, err := flowchart.Parse(src)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil || p.Arity() == 0 || p.Arity() > 8 {
			return
		}
		c, err := p.Compile()
		if err != nil {
			return
		}
		k := p.Arity()
		axis := []int64{base, base + stride, base + 2*stride, base + 3*stride}
		maxSteps := int64(1) + int64(budgetSeed)*16
		st := c.NewSnapshotStack()
		fregs := make([]int64, c.Slots())
		idx := make([]int, k)
		in := make([]int64, k)
		prev := make([]int64, k)
		first := true
		for _, b := range walk {
			if len(walk) > 64 {
				walk = walk[:64]
			}
			j := int(b) % k
			idx[j] = (idx[j] + 1 + int(b>>4)) % len(axis)
			for i := range in {
				in[i] = axis[idx[i]]
			}
			carry := 0
			if !first {
				agree := 0
				for agree < k && in[agree] == prev[agree] {
					agree++
				}
				if agree > k-1 {
					agree = k - 1
				}
				carry = agree
				if b&0x80 != 0 && carry > 0 {
					carry-- // under-report: allowed by the hint contract
				}
			}
			wantRes, wantErr := c.RunReuse(fregs, in, maxSteps)
			gotRes, op, gotErr := st.Run(in, carry, maxSteps)
			if (gotErr == nil) != (wantErr == nil) ||
				errors.Is(gotErr, flowchart.ErrStepLimit) != errors.Is(wantErr, flowchart.ErrStepLimit) {
				t.Fatalf("at %v (carry %d): err = %v, scalar err = %v\n%s", in, carry, gotErr, wantErr, src)
			}
			if gotErr == nil && gotRes != wantRes {
				t.Fatalf("at %v (carry %d, op %v): stack = %+v, scalar = %+v\n%s",
					in, carry, op, gotRes, wantRes, src)
			}
			copy(prev, in)
			first = false
		}
	})
}

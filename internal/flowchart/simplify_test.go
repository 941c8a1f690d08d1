package flowchart

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// The compiled tiers lower the rewritten program (simplify.go); the
// interpreter runs the parsed one. FuzzBatchVsScalar and the sweep-level
// differentials compare rewritten code with rewritten code, so only a
// comparison against Program.RunBudget can see a rewrite bug. That is
// what this file does: every tier's Result (value, steps, violation,
// notice) and its step-limit error must be the interpreter's.

// sameRun reports whether a compiled tier's answer is the interpreter's.
func sameRun(got Result, gotErr error, want Result, wantErr error) bool {
	if (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrStepLimit) != errors.Is(wantErr, ErrStepLimit) {
		return false
	}
	return got == want
}

// checkTiers runs every tuple outer[r] ++ [v] for v in last on the
// interpreter and on Compiled.Run, RunBatch (one stride per row) and a
// SnapshotStack walked in odometer order, and fails on the first answer
// that differs. When calls is non-nil, the Func under test appends its
// argument to it on every call, and Run and RunBatch must make the
// interpreter's calls with the interpreter's arguments.
func checkTiers(t *testing.T, p *Program, outer [][]int64, last []int64, maxSteps int64, calls *[]int64) {
	t.Helper()
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	lanes, err := c.NewLanes(len(last))
	if err != nil {
		t.Fatal(err)
	}
	st := c.NewSnapshotStack()
	// count takes the calls made since it last ran, as a sorted list of
	// arguments: the batch tier calls node by node across lanes, so only
	// the multiset is the interpreter's.
	count := func() []int64 {
		if calls == nil {
			return nil
		}
		got := *calls
		*calls = nil
		slices.Sort(got)
		return got
	}
	tuple := func(row []int64, v int64) []int64 { return append(append([]int64(nil), row...), v) }
	type answer struct {
		res Result
		err error
	}
	want := make([][]answer, len(outer))
	count()
	for r, row := range outer {
		for _, v := range last {
			res, err := p.RunBudget(tuple(row, v), maxSteps, nil)
			want[r] = append(want[r], answer{res, err})
		}
	}
	wantCalls := count()
	fail := func(tier string, in []int64, got Result, gotErr error, w answer) {
		t.Helper()
		t.Fatalf("%s on %v (budget %d): %+v, %v; interpreter %+v, %v\n%s",
			tier, in, maxSteps, got, gotErr, w.res, w.err, Print(p))
	}

	for r, row := range outer {
		for i, v := range last {
			in := tuple(row, v)
			if got, err := c.Run(in, maxSteps); !sameRun(got, err, want[r][i].res, want[r][i].err) {
				fail("Run", in, got, err, want[r][i])
			}
		}
	}
	if got := count(); !slices.Equal(got, wantCalls) {
		t.Fatalf("Run made calls %v, interpreter %v\n%s", got, wantCalls, Print(p))
	}

	out := make([]Result, len(last))
	for r, row := range outer {
		err := c.RunBatch(lanes, tuple(row, last[0]), last, maxSteps, out)
		var wantErr error
		for i := range last {
			if !sameRun(out[i], nil, want[r][i].res, nil) {
				fail("RunBatch", tuple(row, last[i]), out[i], nil, want[r][i])
			}
			if wantErr == nil {
				wantErr = want[r][i].err
			}
		}
		if !sameRun(Result{}, err, Result{}, wantErr) {
			t.Fatalf("RunBatch row %v (budget %d): err %v, interpreter %v\n%s", row, maxSteps, err, wantErr, Print(p))
		}
	}
	if got := count(); !slices.Equal(got, wantCalls) {
		t.Fatalf("RunBatch made calls %v, interpreter %v\n%s", got, wantCalls, Print(p))
	}

	k := p.Arity()
	for r, row := range outer {
		for i, v := range last {
			in := tuple(row, v)
			carry := k - 1
			if i == 0 {
				carry = 0
			}
			if got, _, err := st.Run(in, carry, maxSteps); !sameRun(got, err, want[r][i].res, want[r][i].err) {
				fail("SnapshotStack", in, got, err, want[r][i])
			}
		}
	}
	if got := count(); len(got) > len(wantCalls) {
		// The stack answers some tuples without executing them, so it may
		// make fewer calls, never more.
		t.Fatalf("SnapshotStack made %d calls, interpreter %d\n%s", len(got), len(wantCalls), Print(p))
	}
}

// jumps counts the boxes the rewrite turned into jumps.
func jumps(c *Compiled) int {
	n := 0
	for i := range c.code {
		if c.code[i].kind == KindStart && c.Source.Nodes[i].Kind != KindStart {
			n++
		}
	}
	return n
}

// TestRewriteMatchesInterpreter pins the rewrite's edge cases: the
// power-of-two remainder at its extremes beside the divisors that keep
// the generic path, constant ites and dead stores that hold a Call, dead
// stores to inputs and to the output, and constant decisions under every
// step budget up to the program's length.
func TestRewriteMatchesInterpreter(t *testing.T) {
	edges := []int64{math.MinInt64, math.MinInt64 + 1, -13, -9, -8, -4, -1, 0, 1, 3, 4, 7, 8, 13, math.MaxInt64}
	cases := []struct {
		name  string
		src   string
		outer [][]int64 // leading coordinates of each row
		jumps int       // boxes the rewrite turns into jumps
		calls int       // calls to f per tuple, -1 when f is absent
	}{
		{name: "MinInt64 % 4", src: "inputs x\n y := x % 4\n halt\n", jumps: 0, calls: -1},
		{name: "negative % 8", src: "inputs x\n y := x % 8 + (x - 3) % 8 + -x % 2\n halt\n", calls: -1},
		{name: "% 1", src: "inputs x\n y := x % 1 + 7\n halt\n", calls: -1},
		{name: "% -4 and other divisors stay generic", src: "inputs x\n y := x % -4 * 100 + x % 3 * 10 + x % 0 + x % (0 - 9223372036854775807 - 1)\n halt\n", calls: -1},
		{name: "folded constants", src: "inputs x\n y := x + 0 % 4 % 4 * (2 * 1 - 3) + ^-(7 / 0)\n if 3 > 2 && !(1 == 2) || false goto A else B\nA: halt\nB: violation \"never\"\n", jumps: 1, calls: -1},
		{name: "constant ite keeps one arm", src: "inputs x\n y := ite(0 % 4 == 0, x, x * 2) + ite(1 > 2, x, 5)\n halt\n", calls: -1},
		{name: "constant ite dropped arm holds a call", src: "inputs x\n y := ite(1 < 2, x, f(x)) + ite(2 < 1, f(x + 1), x)\n halt\n", calls: 2},
		{name: "dead store holding a call is kept", src: "inputs x\n u := x + 1\n t := f(u)\n t := 0\n y := x\n halt\n", jumps: 1, calls: 1},
		{name: "dead store to an input", outer: [][]int64{{-2}, {5}}, src: "inputs a x\n y := x\n x := 5\n a := a + 1\n halt\n", jumps: 2, calls: -1},
		{name: "y := y", src: "inputs x\n y := y\n y := x\n y := y\n halt\n", jumps: 1, calls: -1},
		{name: "dead chain and a faint loop counter", src: "inputs x\n t1 := x * 3\n t2 := t1 + 1\n c := 3\nL: if c == 0 goto D else B\nB: c := c - 1\n j := j + c\n goto L\nD: y := x\n halt\n", jumps: 3, calls: -1},
		{name: "violation halt reads no output", src: "inputs x\n if x > 0 goto V else H\nV: y := x * 2\n violation \"pos\"\nH: y := x\n halt\n", jumps: 1, calls: -1},
		{name: "constant decision under a tight step budget", src: "inputs x\n if 1 < 2 goto A else B\nA: y := x\n if 0 == 1 goto B else C\nB: y := 0\nC: halt\n", jumps: 2, calls: -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls []int64
			f := &Func{Name: "f", Arity: 1, Fn: func(a []int64) int64 { calls = append(calls, a[0]); return a[0] * 2 }}
			p, err := ParseWithOptions(tc.src, ParseOptions{Funcs: []*Func{f}})
			if err != nil {
				t.Fatal(err)
			}
			c, err := p.Compile()
			if err != nil {
				t.Fatal(err)
			}
			if got := jumps(c); got != tc.jumps {
				t.Errorf("rewrite made %d jumps, want %d", got, tc.jumps)
			}
			outer := tc.outer
			if outer == nil {
				outer = [][]int64{{}}
			}
			var steps int64
			for _, row := range outer {
				for _, v := range edges {
					res, err := p.RunBudget(append(append([]int64(nil), row...), v), DefaultMaxSteps, nil)
					if err != nil {
						t.Fatal(err)
					}
					steps = max(steps, res.Steps)
				}
			}
			if tc.calls >= 0 {
				calls = nil
				if _, err := c.Run(append(make([]int64, p.Arity()-1), 1), DefaultMaxSteps); err != nil {
					t.Fatal(err)
				}
				if len(calls) != tc.calls {
					t.Errorf("one run made %d calls, want %d", len(calls), tc.calls)
				}
			}
			counter := &calls
			if tc.calls < 0 {
				counter = nil
			}
			for budget := int64(1); budget <= steps+1; budget++ {
				checkTiers(t, p, outer, edges, budget, counter)
			}
			checkTiers(t, p, outer, edges, DefaultMaxSteps, counter)
		})
	}
}

// FuzzCompiledVsInterpreter is the rewrite's semantic oracle: for any
// program the parser accepts, any fuzz-chosen inputs, stride width and
// step budget, Compiled.Run, RunBatch and a SnapshotStack walk must each
// answer exactly what Program.RunBudget answers on the parsed program.
func FuzzCompiledVsInterpreter(f *testing.F) {
	seeds := append([]string{
		"inputs x\n y := x % 4 + (x - 1) % 8 + x % -4\n halt\n",
		"inputs x\n t := x\n y := 0 % 4 % 4 + 2 * 1 - 3\n if 1 < 2 goto A else B\nA: halt\nB: y := t\n halt\n",
		"inputs a b\n a := 3\n y := ite(1 == 1, b, a)\n y := y\n halt\n",
	}, fuzzSeeds...)
	for i, s := range seeds {
		f.Add(s, int64(i-4), int64(3*i+1), uint8(i), uint8(i*5))
		f.Add(s, int64(math.MinInt64), int64(1), uint8(5), uint8(255))
	}
	f.Fuzz(func(t *testing.T, src string, base, stride int64, widthSeed, budgetSeed uint8) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil || p.Arity() == 0 || p.Arity() > 8 {
			return
		}
		if _, err := p.Compile(); err != nil {
			return
		}
		width := 1 + int(widthSeed%8)
		maxSteps := int64(1) + int64(budgetSeed)*16
		outer := make([][]int64, 2)
		for r := range outer {
			outer[r] = make([]int64, p.Arity()-1)
			for i := range outer[r] {
				outer[r][i] = base + int64(i+r)*stride
			}
		}
		last := make([]int64, width)
		for i := range last {
			last[i] = base + int64(i)*stride
		}
		checkTiers(t, p, outer, last, maxSteps, nil)
	})
}

package flowchart

import (
	"errors"
	"testing"
)

// fuzzSeeds is the shared program corpus the fuzz targets start from:
// parser and runner edge cases, then the batch tier's kernel shapes.
var fuzzSeeds = append([]string{
	progE3,
	"inputs x\n y := x\n halt\n",
	"inputs a b\n if a == b goto T else F\nT: halt\nF: violation \"no\"\n",
	"program p\ninputs x\noutput z\n z := ite(x > 0, 1, -1)\n halt\n",
	"inputs x\n y := x | 3 &^ 1 ^ 2 % 4 / 5 * 6 - 7 + 8\n halt\n",
	"inputs x\n if !(x == 0) && true || false goto A else A\nA: halt\n",
	"// comment only\ninputs x\n halt\n",
	"inputs x\nL: x := x - 1\n if x > 0 goto L else D\nD: halt\n",
	"inputs\n y := 0 - -3\n halt\n",
}, kernelShapeSources()...)

// FuzzSeeds exposes fuzzSeeds to the external test package's fuzz target.
var FuzzSeeds = fuzzSeeds

// FuzzParse checks the parser's robustness invariants: it never panics,
// and whenever it accepts a program, the program validates, prints, and
// re-parses with a stable printed form (one-step idempotence), and runs
// without unexpected failures.
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted program does not validate: %v", err)
		}
		text1 := Print(p)
		p2, err := ParseWithOptions(text1, ParseOptions{AllowShadows: true})
		if err != nil {
			t.Fatalf("printed program does not re-parse: %v\n%s", err, text1)
		}
		text2 := Print(p2)
		if text1 != text2 {
			t.Fatalf("print not idempotent:\n--- 1 ---\n%s--- 2 ---\n%s", text1, text2)
		}
		// Accepted programs must run (or hit the budget) without panics;
		// only the step limit is a tolerable failure.
		in := make([]int64, p.Arity())
		if _, err := p.RunBudget(in, 4096, nil); err != nil && !errors.Is(err, ErrStepLimit) {
			t.Fatalf("run failed unexpectedly: %v", err)
		}
	})
}

// FuzzBatchVsScalar is the batch tier's semantic oracle: for any program
// the parser accepts and any fuzz-chosen inputs, stride, and step budget,
// the batch runner's per-lane Results — and its first-lane-ordered error —
// must match scalar RunReuse exactly. This is the property every
// differential suite pins on fixed corpora, checked on arbitrary programs.
func FuzzBatchVsScalar(f *testing.F) {
	for i, s := range fuzzSeeds {
		f.Add(s, int64(i-4), int64(3*i), uint8(i), uint8(7))
	}
	f.Fuzz(func(t *testing.T, src string, base, stride int64, widthSeed, budgetSeed uint8) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil || p.Arity() == 0 {
			return
		}
		c, err := p.Compile()
		if err != nil {
			return // scalar compile rejections are compile_test's concern
		}
		width := 1 + int(widthSeed%8)
		maxSteps := int64(1) + int64(budgetSeed)*16
		lanes, err := c.NewLanes(width)
		if err != nil {
			t.Fatalf("scalar-compilable program fails batch compile: %v", err)
		}
		in := make([]int64, p.Arity())
		for i := range in {
			in[i] = base + int64(i)*stride
		}
		last := make([]int64, width)
		for i := range last {
			last[i] = in[len(in)-1] + int64(i)*stride
		}
		out := make([]Result, width)
		batchErr := c.RunBatch(lanes, in, last, maxSteps, out)
		regs := make([]int64, c.Slots())
		var wantErr error
		for lane, v := range last {
			in[len(in)-1] = v
			res, err := c.RunReuse(regs, in, maxSteps)
			if err != nil {
				wantErr = err
				break
			}
			if batchErr == nil && out[lane] != res {
				t.Fatalf("lane %d of %d (input %v): batch = %+v, scalar = %+v\n%s",
					lane, width, in, out[lane], res, src)
			}
		}
		if (batchErr == nil) != (wantErr == nil) ||
			errors.Is(batchErr, ErrStepLimit) != errors.Is(wantErr, ErrStepLimit) {
			t.Fatalf("batch err = %v, scalar err = %v (width %d, budget %d)\n%s",
				batchErr, wantErr, width, maxSteps, src)
		}
	})
}

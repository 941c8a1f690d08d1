package check_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"spm/internal/check"
	"spm/internal/core"
	"spm/internal/flowchart"
	"spm/internal/progen"
)

// runBatchPaths extends runPaths with the batch tier: at one worker the
// batch verdict at every width — with and without memo composition — must
// be byte-identical to the scalar memoized verdict (which runPaths has
// already pinned to the plain and interpreter paths).
func runBatchPaths(t *testing.T, tag string, spec check.Spec, widths []int, opts ...check.Option) check.Verdict {
	t.Helper()
	scalar := runPaths(t, tag, spec, opts...)
	want := verdictJSON(t, scalar)
	base := append([]check.Option{check.WithWorkers(1), check.WithChunk(7)}, opts...)
	for _, w := range widths {
		batch, err := check.Run(context.Background(), spec, append(base, check.WithBatch(w))...)
		if err != nil {
			t.Fatalf("%s: WithBatch(%d) Run: %v", tag, w, err)
		}
		if got := verdictJSON(t, batch); got != want {
			t.Fatalf("%s: batch width %d verdict differs:\n batch: %s\nscalar: %s", tag, w, got, want)
		}
		nomemo, err := check.Run(context.Background(), spec, append(base, check.WithBatch(w), check.WithMemo(false))...)
		if err != nil {
			t.Fatalf("%s: WithBatch(%d)+WithMemo(false) Run: %v", tag, w, err)
		}
		if got := verdictJSON(t, nomemo); got != want {
			t.Fatalf("%s: unmemoized batch width %d verdict differs:\n batch: %s\nscalar: %s", tag, w, got, want)
		}
	}
	return scalar
}

// TestBatchDifferentialProgen is the batch tier's correctness gate: on 30
// randomized total programs, the batch sweep must produce byte-identical
// verdicts — soundness, maximality, and pass count — to the memoized,
// plain-compiled, and interpreted paths, whole-domain and sharded.
func TestBatchDifferentialProgen(t *testing.T) {
	axis := []int64{-2, -1, 0, 1, 2, 3}
	widths := []int{4, 32, 64, 4096}
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(1000 + seed))
		arity := 2 + int(seed)%2
		p := progen.Generate(r, progen.DefaultConfig(arity))
		m := core.FromProgram(p)
		pol := core.NewAllow(arity, arity)
		if seed%3 == 0 {
			pol = core.NewAllow(arity, 1)
		}
		dom := make(core.Domain, arity)
		for i := range dom {
			dom[i] = axis
		}
		for _, kind := range []check.Kind{check.Soundness, check.Maximality, check.PassCount} {
			spec := check.Spec{Kind: kind, Mechanism: m, Program: m, Policy: pol, Domain: dom}
			tag := p.Name + "/" + kind.String()
			runBatchPaths(t, tag, spec, widths)

			// Sharded halves: shard cuts land mid-row, so batch strides clip
			// against shard bounds too; parts and the merged whole must
			// still be byte-identical to the scalar paths.
			size := 1
			for i := range dom {
				size *= len(dom[i])
			}
			half := int64(size / 2)
			var batchParts, scalarParts []check.Verdict
			for _, shard := range []check.Shard{{Offset: 0, Count: half}, {Offset: half}} {
				s := spec
				s.Shard = shard
				scalarParts = append(scalarParts, runBatchPaths(t, tag+"/sharded", s, widths))
				part, err := check.Run(context.Background(), s,
					check.WithWorkers(1), check.WithChunk(7), check.WithBatch(8))
				if err != nil {
					t.Fatalf("%s: sharded batch Run: %v", tag, err)
				}
				batchParts = append(batchParts, part)
			}
			mergedBatch, err := check.Merge(batchParts...)
			if err != nil {
				t.Fatalf("%s: Merge batch parts: %v", tag, err)
			}
			mergedScalar, err := check.Merge(scalarParts...)
			if err != nil {
				t.Fatalf("%s: Merge scalar parts: %v", tag, err)
			}
			if got, want := verdictJSON(t, mergedBatch), verdictJSON(t, mergedScalar); got != want {
				t.Fatalf("%s: merged batch verdict differs:\nbatch: %s\nscalar: %s", tag, got, want)
			}
		}
	}
}

// TestBatchDifferentialDivergenceHeavy sweeps handcrafted programs whose
// branches split on the innermost input — every stride diverges — plus
// loops that exhaust the step budget on some lanes only, through the full
// verdict path. The domains are chosen so chunk boundaries fall mid-row
// (batch width > remaining chunk) and rows are narrower than the widest
// batch.
func TestBatchDifferentialDivergenceHeavy(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"alternate", `
program alternate
inputs x1 x2
    if x2 % 2 == 0 goto Even else Odd
Even: y := x1 + x2
      halt
Odd:  y := x1 * x2
      halt
`},
		{"three-way-split", `
program threeway
inputs x1 x2
    if x2 > 1 goto Hi else Rest
Rest: if x2 < 0 goto Lo else Mid
Hi:  y := x1 + 100
     halt
Mid: violation "mid band"
Lo:  y := x1 - 100
     halt
`},
		{"lane-dependent-spin", `
program spinlanes
inputs x1 x2
    i := x2 & 15
    y := x1
Loop: if i == 0 goto Done else Body
Body: i := i - 1
      y := y + 1
      goto Loop
Done: halt
`},
	}
	axis := []int64{-3, -2, -1, 0, 1, 2, 3, 4}
	for _, tc := range cases {
		p := flowchart.MustParse(tc.src)
		m := core.FromProgram(p)
		dom := core.Domain{axis, axis}
		for _, kind := range []check.Kind{check.Soundness, check.Maximality, check.PassCount} {
			spec := check.Spec{Kind: kind, Mechanism: m, Program: m, Policy: core.NewAllow(2, 1), Domain: dom}
			// Chunk 5 < the 8-value row widths 8 and 32 clamp to: every
			// chunk tail is narrower than the batch, and width 1 must
			// equal the scalar path exactly.
			runBatchPaths(t, tc.name+"/"+kind.String(), spec, []int{1, 8, 32}, check.WithChunk(5))
		}
	}
}

// TestBatchDifferentialParallel covers the multi-worker engine: witness
// choice is scheduling-dependent there, but the decision fields must agree
// between the batch and scalar paths.
func TestBatchDifferentialParallel(t *testing.T) {
	axis := []int64{-2, -1, 0, 1, 2, 3, 4, 5}
	for seed := int64(0); seed < 8; seed++ {
		r := rand.New(rand.NewSource(2000 + seed))
		p := progen.Generate(r, progen.DefaultConfig(2))
		m := core.FromProgram(p)
		spec0 := check.Spec{Mechanism: m, Program: m, Policy: core.NewAllow(2, 2), Domain: core.Domain{axis, axis}}
		for _, kind := range []check.Kind{check.Soundness, check.Maximality, check.PassCount} {
			spec := spec0
			spec.Kind = kind
			batch, err := check.Run(context.Background(), spec, check.WithWorkers(4), check.WithChunk(5), check.WithBatch(8))
			if err != nil {
				t.Fatalf("%s/%v: batch Run: %v", p.Name, kind, err)
			}
			scalar, err := check.Run(context.Background(), spec, check.WithWorkers(4), check.WithChunk(5))
			if err != nil {
				t.Fatalf("%s/%v: scalar Run: %v", p.Name, kind, err)
			}
			if batch.Sound != scalar.Sound || batch.Maximal != scalar.Maximal ||
				batch.Checked != scalar.Checked || batch.Passes != scalar.Passes {
				t.Fatalf("%s/%v: parallel verdicts disagree:\n batch: %+v\nscalar: %+v", p.Name, kind, batch, scalar)
			}
		}
	}
}

// TestBatchNonFlowchartFallback: WithBatch on a mechanism with no
// compiled form (a plain Go function) runs its strides lane by lane
// through Mechanism.Run — identical verdicts, no error.
func TestBatchNonFlowchartFallback(t *testing.T) {
	m := core.NewFunc("parity", 2, func(in []int64) core.Outcome {
		if (in[0]+in[1])%2 != 0 {
			return core.Outcome{Violation: true, Notice: "odd"}
		}
		return core.Outcome{Value: in[0]}
	})
	spec := check.Spec{Kind: check.Soundness, Mechanism: m, Policy: core.NewAllow(2, 1), Domain: core.Grid(2, 0, 1, 2, 3)}
	runBatchPaths(t, "func-mechanism", spec, []int{4, 16})
}

// TestNullaryDomainOneTuple runs every kind on a zero-input program through
// the one execution seam — the default width, the one-lane stride, a wide
// stride, and the interpreter — and requires exactly one checked tuple
// each time: the empty product's single empty tuple, which the sweep
// delivers as a call with no lanes.
func TestNullaryDomainOneTuple(t *testing.T) {
	p := flowchart.MustParse(`
program constant
    y := 7
    halt
`)
	m := core.FromProgram(p)
	paths := map[string][]check.Option{
		"default":     nil,
		"batch1":      {check.WithBatch(1)},
		"batch16":     {check.WithBatch(16)},
		"interpreted": {check.WithCompiled(false)},
	}
	for _, kind := range []check.Kind{check.Soundness, check.Maximality, check.PassCount} {
		spec := check.Spec{Kind: kind, Mechanism: m, Program: m, Policy: core.NewAllow(0), Domain: core.Domain{}}
		want := ""
		for name, opts := range paths {
			v, err := check.Run(context.Background(), spec, opts...)
			if err != nil {
				t.Fatalf("%v/%s: %v", kind, name, err)
			}
			if v.Checked != 1 {
				t.Errorf("%v/%s: checked %d tuples, want 1", kind, name, v.Checked)
			}
			if kind == check.PassCount && v.Passes != 1 {
				t.Errorf("%v/%s: %d passes, want 1", kind, name, v.Passes)
			}
			if got := verdictJSON(t, v); want == "" {
				want = got
			} else if got != want {
				t.Errorf("%v/%s: verdict %s, want %s", kind, name, got, want)
			}
		}
	}
}

// TestBatchMixedMechanisms pairs a compiled program with a core.Func
// mechanism in one maximality check, in both roles. Each mechanism picks
// its own runner, so at width 16 the Func runs its strides lane by lane
// while the program runs them in lockstep — and with the Func as the
// reference Q, it runs first on every stride and must hand the program's
// lane 0 the stride's first tuple back. The verdict and witness must be
// byte-identical to width 1 and to the interpreter.
func TestBatchMixedMechanisms(t *testing.T) {
	gate := core.FromProgram(flowchart.MustParse(`
program gate
inputs x1 x2
    if x2 > 3 goto Deny else Allow
Deny:  violation "high"
Allow: y := x2
       halt
`))
	ident := core.NewFunc("x2", 2, func(in []int64) core.Outcome {
		return core.Outcome{Value: in[1], Steps: 1}
	})
	axis := []int64{0, 1, 2, 3, 4, 5, 6, 7}
	dom := core.Domain{axis, axis}
	pol := core.NewAllow(2, 2)

	// Q = x2 is sound for allow(2), so every class is Q-constant and the
	// gate withholds where the maximal mechanism releases: first at x2 = 4.
	spec := check.Spec{Kind: check.Maximality, Mechanism: gate, Program: ident, Policy: pol, Domain: dom}
	v := runBatchPaths(t, "func-q/compiled-m", spec, []int{16})
	if v.Maximal || v.Reason != core.ReasonWithholds || fmt.Sprint(v.Witness) != "[0 4]" {
		t.Fatalf("func-q/compiled-m: verdict %+v, want withholds at [0 4]", v)
	}

	spec = check.Spec{Kind: check.Maximality, Mechanism: ident, Program: gate, Policy: pol, Domain: dom}
	runBatchPaths(t, "compiled-q/func-m", spec, []int{16})
}

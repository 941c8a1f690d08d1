package check_test

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"spm/internal/check"
	"spm/internal/core"
	"spm/internal/progen"
)

// runStackPaths decides spec under the four execution tiers that must be
// extensionally identical — snapshot-stack memoized (the default),
// single-axis prefix memo (WithMemoStack(false)), compiled without
// memoization, and the tree-walking interpreter — at one worker, where
// enumeration order (and therefore witness choice) is deterministic, and
// requires byte-identical verdicts.
func runStackPaths(t *testing.T, tag string, spec check.Spec, opts ...check.Option) check.Verdict {
	t.Helper()
	base := append([]check.Option{check.WithWorkers(1), check.WithChunk(7)}, opts...)
	stack, err := check.Run(context.Background(), spec, base...)
	if err != nil {
		t.Fatalf("%s: stack Run: %v", tag, err)
	}
	memo, err := check.Run(context.Background(), spec, append(base, check.WithMemoStack(false))...)
	if err != nil {
		t.Fatalf("%s: WithMemoStack(false) Run: %v", tag, err)
	}
	plain, err := check.Run(context.Background(), spec, append(base, check.WithMemo(false))...)
	if err != nil {
		t.Fatalf("%s: WithMemo(false) Run: %v", tag, err)
	}
	interp, err := check.Run(context.Background(), spec, append(base, check.WithCompiled(false))...)
	if err != nil {
		t.Fatalf("%s: WithCompiled(false) Run: %v", tag, err)
	}
	want := verdictJSON(t, stack)
	for _, other := range []struct {
		name string
		v    check.Verdict
	}{{"single-axis memo", memo}, {"no-memo", plain}, {"interpreter", interp}} {
		if got := verdictJSON(t, other.v); got != want {
			t.Fatalf("%s: stack verdict differs from %s:\nstack: %s\nother: %s", tag, other.name, want, got)
		}
	}
	return stack
}

// TestMemoStackDifferentialProgen is the snapshot-stack tier's
// correctness gate: on 30 randomized total programs, the stack-memoized
// sweep must produce byte-identical verdicts to the single-axis memo,
// the non-memoized compiled path, and the interpreter — whole-domain and
// sharded, merged and per-part, scalar and at batch widths 8 and 32.
func TestMemoStackDifferentialProgen(t *testing.T) {
	axis := []int64{-2, -1, 0, 1, 2, 3}
	kinds := []check.Kind{check.Soundness, check.Maximality, check.PassCount}
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(3000 + seed))
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
		kind := kinds[seed%3]
		spec := check.Spec{Kind: kind, Mechanism: m, Program: m, Policy: pol, Domain: dom}
		tag := p.Name + "/" + kind.String()

		for _, width := range []int{1, 8, 32} {
			runStackPaths(t, tag, spec, check.WithBatch(width))
		}

		// Sharded halves: the evidence tables (Views/Classes) and the
		// merged whole-domain verdict must also be tier-independent.
		size := 1
		for i := range dom {
			size *= len(dom[i])
		}
		half := int64(size / 2)
		for _, width := range []int{1, 8} {
			var stackParts, memoParts []check.Verdict
			for _, shard := range []check.Shard{{Offset: 0, Count: half}, {Offset: half}} {
				s := spec
				s.Shard = shard
				stackParts = append(stackParts, runStackPaths(t, tag+"/sharded", s, check.WithBatch(width)))
				memo, err := check.Run(context.Background(), s,
					check.WithWorkers(1), check.WithChunk(7),
					check.WithBatch(width), check.WithMemoStack(false))
				if err != nil {
					t.Fatalf("%s: sharded memo Run: %v", tag, err)
				}
				memoParts = append(memoParts, memo)
			}
			mergedStack, err := check.Merge(stackParts...)
			if err != nil {
				t.Fatalf("%s: Merge stack parts: %v", tag, err)
			}
			mergedMemo, err := check.Merge(memoParts...)
			if err != nil {
				t.Fatalf("%s: Merge memo parts: %v", tag, err)
			}
			if got, want := verdictJSON(t, mergedStack), verdictJSON(t, mergedMemo); got != want {
				t.Fatalf("%s: merged stack verdict differs:\nstack: %s\n memo: %s", tag, got, want)
			}
		}
	}
}

// TestMemoStackConcurrentWorkStealing drives the stack tier with many
// workers and single-tuple chunks — the maximum-stealing schedule, where
// every worker's carry hints interleave across stolen chunks — and pins
// the decision fields against the deterministic single-worker verdict.
// Run under -race this also proves the per-worker snapshot stacks share
// nothing.
func TestMemoStackConcurrentWorkStealing(t *testing.T) {
	axis := []int64{-2, -1, 0, 1, 2, 3, 4, 5}
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(4000 + seed))
		arity := 2 + int(seed)%2
		p := progen.Generate(r, progen.DefaultConfig(arity))
		m := core.FromProgram(p)
		pol := core.NewAllow(arity, 1)
		dom := make(core.Domain, arity)
		for i := range dom {
			dom[i] = axis
		}
		spec := check.Spec{Kind: check.Soundness, Mechanism: m, Policy: pol, Domain: dom}
		ref, err := check.Run(context.Background(), spec, check.WithWorkers(1))
		if err != nil {
			t.Fatalf("seed %d: reference Run: %v", seed, err)
		}
		for _, width := range []int{1, 8} {
			var progress atomic.Int64
			tally := &core.ExecTally{}
			got, err := check.Run(context.Background(), spec,
				check.WithWorkers(8), check.WithChunk(1), check.WithBatch(width),
				check.WithProgress(&progress), check.WithExecTally(tally))
			if err != nil {
				t.Fatalf("seed %d width %d: concurrent Run: %v", seed, width, err)
			}
			if got.Sound != ref.Sound || got.Checked != ref.Checked {
				t.Fatalf("seed %d width %d: concurrent verdict (sound %v, checked %d) != reference (sound %v, checked %d)",
					seed, width, got.Sound, got.Checked, ref.Sound, ref.Checked)
			}
			if progress.Load() != int64(ref.Checked) {
				t.Fatalf("seed %d width %d: progress %d != checked %d", seed, width, progress.Load(), ref.Checked)
			}
			c := tally.Counts()
			if c.StackFull+c.StackReplays+c.StackConstants == 0 {
				t.Fatalf("seed %d width %d: no stack activity under stealing: %+v", seed, width, c)
			}
		}
	}
}

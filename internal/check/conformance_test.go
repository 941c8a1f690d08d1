package check_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"spm/internal/check"
	"spm/internal/core"
	"spm/internal/fenton"
	"spm/internal/filesys"
	"spm/internal/flowchart"
	"spm/internal/lattice"
	"spm/internal/logon"
	"spm/internal/paging"
	"spm/internal/progen"
	"spm/internal/querydb"
	"spm/internal/tape"
)

// A protection mechanism is its input/output behaviour, so every way this
// package can execute one must reach the same verdict. This file is that
// proof for every execution tier: each case is decided by the reference —
// the tree-walking interpreter at one worker — and by every executor in
// the table below, and every verdict must be the reference's JSON byte
// for byte, witnesses included. Adding or removing a tier is one row.

// verdictJSON renders a Verdict for byte-identical comparison.
func verdictJSON(t *testing.T, v check.Verdict) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal verdict: %v", err)
	}
	return string(b)
}

// executor is one row of the conformance table.
type executor struct {
	name string
	run  func(spec check.Spec) (check.Verdict, error)
}

// withOptions is the executor that runs spec under opts.
func withOptions(opts ...check.Option) func(check.Spec) (check.Verdict, error) {
	return func(spec check.Spec) (check.Verdict, error) {
		return check.Run(context.Background(), spec, opts...)
	}
}

// reference decides spec on the interpreter at one worker.
var reference = withOptions(check.WithWorkers(1), check.WithCompiled(false))

var executors = []executor{
	{"stack/w1", withOptions(check.WithWorkers(1), check.WithChunk(7), check.WithBatch(1))},
	{"stack/w8", withOptions(check.WithWorkers(1), check.WithChunk(7), check.WithBatch(8))},
	{"stack/w32", withOptions(check.WithWorkers(1), check.WithChunk(7), check.WithBatch(32))},
	{"stack/w64", withOptions(check.WithWorkers(1), check.WithChunk(7), check.WithBatch(64))},
	{"workers4/chunk5", withOptions(check.WithWorkers(4), check.WithChunk(5))},
	// The maximum-stealing schedule: every worker's carry hints
	// interleave across single-tuple chunks. Under -race this also shows
	// the per-worker snapshot stacks share nothing.
	{"workers8/chunk1", func(spec check.Spec) (check.Verdict, error) {
		progress := &chunkTally{}
		v, err := check.Run(context.Background(), spec,
			check.WithWorkers(8), check.WithChunk(1), check.WithObserver(progress))
		if err == nil && progress.tuples.Load() != int64(v.Checked) {
			err = fmt.Errorf("progress %d != checked %d", progress.tuples.Load(), v.Checked)
		}
		return v, err
	}},
	{"lending", withOptions(check.WithWorkers(0))},
	{"shards+merge", shardedMerge(check.WithWorkers(1), check.WithChunk(7), check.WithBatch(8))},
}

// shardedMerge is the executor that splits the domain in two shards,
// decides each under opts, requires each part's evidence to be the
// interpreter's part byte for byte, and folds the parts with check.Merge.
func shardedMerge(opts ...check.Option) func(check.Spec) (check.Verdict, error) {
	return func(spec check.Spec) (check.Verdict, error) {
		size := int64(1)
		for _, axis := range spec.Domain {
			size *= int64(len(axis))
		}
		half := size / 2
		var parts []check.Verdict
		for _, shard := range []check.Shard{{Offset: 0, Count: half}, {Offset: half, Count: size - half}} {
			if shard.Count == 0 {
				continue
			}
			s := spec
			s.Shard = shard
			part, err := check.Run(context.Background(), s, opts...)
			if err != nil {
				return part, err
			}
			want, err := reference(s)
			if err != nil {
				return part, err
			}
			got, _ := json.Marshal(part)
			ref, _ := json.Marshal(want)
			if string(got) != string(ref) {
				return part, fmt.Errorf("shard %+v differs from the interpreter's:\n  got: %s\n want: %s", shard, got, ref)
			}
			parts = append(parts, part)
		}
		return check.Merge(parts...)
	}
}

// kinds are the verdict kinds every case is decided under.
var kinds = []check.Kind{check.Soundness, check.Maximality, check.PassCount}

// conform decides spec on the reference and on every executor in the
// table, fails on the first verdict that is not the reference's byte for
// byte, and returns the reference verdict.
func conform(t *testing.T, tag string, spec check.Spec) check.Verdict {
	t.Helper()
	return conformOn(t, executors, tag, spec)
}

// conformOn is conform over the executors exs.
func conformOn(t *testing.T, exs []executor, tag string, spec check.Spec) check.Verdict {
	t.Helper()
	ref, err := reference(spec)
	if err != nil {
		t.Fatalf("%s: reference: %v", tag, err)
	}
	want := verdictJSON(t, ref)
	for _, ex := range exs {
		v, err := ex.run(spec)
		if err != nil {
			t.Fatalf("%s on %s: %v", tag, ex.name, err)
		}
		if got := verdictJSON(t, v); got != want {
			t.Fatalf("%s on %s differs from the interpreter:\n  got: %s\n want: %s", tag, ex.name, got, want)
		}
	}
	return ref
}

// conformKinds runs conformOn on spec under every kind, with the
// mechanism as its own maximality reference.
func conformKinds(t *testing.T, exs []executor, tag string, spec check.Spec) {
	t.Helper()
	spec.Program = spec.Mechanism
	for _, kind := range kinds {
		spec.Kind = kind
		conformOn(t, exs, tag+"/"+kind.String(), spec)
	}
}

// Progen seed bands. Each is a set of randomized total programs — which
// re-read inputs, read them under data-dependent branches and shadow them
// with assignments — on a grid of the given axis, under a policy allowing
// only the innermost input or, every third seed, only the outermost.
var (
	shortAxis  = []int64{-2, -1, 0, 1, 2, 3}
	longAxis   = []int64{-2, -1, 0, 1, 2, 3, 4, 5}
	twoOrThree = func(seed int64) int { return 2 + int(seed)%2 }
	binary     = func(int64) int { return 2 }
)

// forProgen calls fn with the spec of each of seeds programs drawn from
// base onwards.
func forProgen(base, seeds int64, axis []int64, arity func(seed int64) int, fn func(tag string, spec check.Spec)) {
	for seed := int64(0); seed < seeds; seed++ {
		n := arity(seed)
		m := core.FromProgram(progen.Generate(rand.New(rand.NewSource(base+seed)), progen.DefaultConfig(n)))
		dom := make(core.Domain, n)
		for i := range dom {
			dom[i] = axis
		}
		allowed := n
		if seed%3 == 0 {
			allowed = 1
		}
		tag := fmt.Sprintf("seed %d/%s/allow(%d)", base+seed, m.Name(), allowed)
		fn(tag, check.Spec{Mechanism: m, Policy: core.NewAllow(n, allowed), Domain: dom})
	}
}

// TestMemoDifferentialProgen decides seeds 1000-1029 on every executor in
// the table: the snapshot stack at every width, the parallel and lending
// schedules, and sharded halves folded by Merge.
func TestMemoDifferentialProgen(t *testing.T) {
	forProgen(1000, 30, shortAxis, twoOrThree, func(tag string, spec check.Spec) {
		conformKinds(t, executors, tag, spec)
	})
}

// TestBatchDifferentialProgen decides seeds 1000-1029 at stride widths
// the table does not hold — 4, and 4096, which clamps to the domain —
// whole-domain and in sharded halves at each.
func TestBatchDifferentialProgen(t *testing.T) {
	var exs []executor
	for _, w := range []int{4, 4096} {
		opts := []check.Option{check.WithWorkers(1), check.WithChunk(7), check.WithBatch(w)}
		name := fmt.Sprintf("w%d", w)
		exs = append(exs, executor{name, withOptions(opts...)}, executor{name + "/shards+merge", shardedMerge(opts...)})
	}
	forProgen(1000, 30, shortAxis, twoOrThree, func(tag string, spec check.Spec) {
		conformKinds(t, exs, tag, spec)
	})
}

// TestMemoDifferentialParallel decides seeds 2000-2007 on four workers at
// chunk 5: carry hints cross chunk boundaries while each worker's stack
// starts cold.
func TestMemoDifferentialParallel(t *testing.T) {
	exs := []executor{
		{"workers4/chunk5", withOptions(check.WithWorkers(4), check.WithChunk(5))},
	}
	forProgen(2000, 8, longAxis, binary, func(tag string, spec check.Spec) {
		conformKinds(t, exs, tag, spec)
	})
}

// TestBatchDifferentialParallel decides seeds 2000-2007 on four workers at
// chunk 5 and stride widths 1, 8 and 32: chunk tails are narrower than
// the wider strides.
func TestBatchDifferentialParallel(t *testing.T) {
	var exs []executor
	for _, w := range []int{1, 8, 32} {
		exs = append(exs, executor{fmt.Sprintf("workers4/chunk5/w%d", w),
			withOptions(check.WithWorkers(4), check.WithChunk(5), check.WithBatch(w))})
	}
	forProgen(2000, 8, longAxis, binary, func(tag string, spec check.Spec) {
		conformKinds(t, exs, tag, spec)
	})
}

// TestMemoStackDifferentialProgen decides seeds 3000-3029 on every
// executor in the table.
func TestMemoStackDifferentialProgen(t *testing.T) {
	forProgen(3000, 30, shortAxis, twoOrThree, func(tag string, spec check.Spec) {
		conformKinds(t, executors, tag, spec)
	})
}

// TestMemoStackConcurrentWorkStealing decides seeds 4000-4005 on eight
// workers at single-tuple chunks — the maximum-stealing schedule, where
// every worker's carry hints interleave — at stride widths 1 and 8. Each
// run's progress must reach its checked count and the stack must have
// answered tuples; under -race this also shows the per-worker snapshot
// stacks share nothing.
func TestMemoStackConcurrentWorkStealing(t *testing.T) {
	var exs []executor
	for _, w := range []int{1, 8} {
		exs = append(exs, executor{fmt.Sprintf("workers8/chunk1/w%d", w), func(spec check.Spec) (check.Verdict, error) {
			progress := &chunkTally{}
			tally := &core.ExecTally{}
			v, err := check.Run(context.Background(), spec, check.WithWorkers(8), check.WithChunk(1),
				check.WithBatch(w), check.WithObserver(progress), check.WithExecTally(tally))
			if err != nil {
				return v, err
			}
			if progress.tuples.Load() != int64(v.Checked) {
				return v, fmt.Errorf("progress %d != checked %d", progress.tuples.Load(), v.Checked)
			}
			if c := tally.Counts(); c.StackFull+c.StackReplays+c.StackConstants == 0 {
				return v, fmt.Errorf("no stack activity under stealing: %+v", c)
			}
			return v, nil
		}})
	}
	forProgen(4000, 6, longAxis, twoOrThree, func(tag string, spec check.Spec) {
		conformKinds(t, exs, tag, spec)
	})
}

// TestConformanceMachines decides the paper's six worked-example
// machines. They are not flowchart-backed, so every compiled executor
// must run them lane by lane without disturbing enumeration order, view
// tables or verdicts.
func TestConformanceMachines(t *testing.T) {
	fs, err := filesys.New(2)
	if err != nil {
		t.Fatal(err)
	}
	db, err := querydb.NewDB([]int64{30, 50, 20, 40, 10, 60, 70, 80})
	if err != nil {
		t.Fatal(err)
	}
	// The statistical database as a mechanism: two queries derived from
	// the input tuple against a fresh history-aware session, so each Run
	// is a pure function of its input.
	queryMech := core.NewFunc("querydb", 2, func(in []int64) core.Outcome {
		s := querydb.NewSession(db, querydb.HistoryAware, 2)
		first := s.Query([]int{int(in[0] % 8), int((in[0] + 1) % 8)})
		second := s.Query([]int{int(in[0] % 8), int(in[1] % 8)})
		if second.Violation {
			return core.Outcome{Violation: true, Notice: second.Notice}
		}
		return core.Outcome{Value: first.Sum + second.Sum}
	})
	// The paged-memory password checker: a fresh two-page memory per run,
	// guess digits taken from the input.
	pagingMech := core.NewFunc("paging-check", 2, func(in []int64) core.Outcome {
		mem := paging.MustNew(64, 16)
		c, err := logon.NewChecker(mem, []byte{byte('0' + in[0]%10)}, 0)
		if err != nil {
			return core.Outcome{Violation: true, Notice: err.Error()}
		}
		ok, err := c.Check([]byte{byte('0' + in[1]%10)}, 15)
		if err != nil {
			return core.Outcome{Violation: true, Notice: err.Error()}
		}
		if ok {
			return core.Outcome{Value: 1}
		}
		return core.Outcome{Value: 0}
	})
	leak := fenton.MustAssemble("leak", `
    brz r1 ZERO
    jmp JOIN
ZERO: halt
JOIN: halt
`)
	fentonMech, err := fenton.NewMechanism(leak, 1, lattice.EmptySet, fenton.HaltAsError)
	if err != nil {
		t.Fatal(err)
	}

	for name, spec := range map[string]check.Spec{
		"fenton": {Mechanism: fentonMech, Policy: core.NewAllow(1), Domain: core.Grid(1, 0, 1, 2)},
		"tape": {Mechanism: &tape.Reader{UseTab: true, Cost: tape.TabConstant},
			Policy: core.NewAllow(2, 2), Domain: core.Domain{{5, 1234}, {7, 42}},
			Observation: core.ObserveValueAndTime},
		"logon": {Mechanism: logon.Program(), Policy: logon.Policy(), Domain: logon.Domain(2)},
		"filesys": {Mechanism: fs.Gatekeeper(), Policy: fs.Policy(),
			Domain: fs.Domain([]int64{0, 1}, false)},
		"querydb": {Mechanism: queryMech, Policy: core.NewAllow(2, 1), Domain: core.Grid(2, 0, 1, 2, 3)},
		"paging":  {Mechanism: pagingMech, Policy: core.NewAllow(2, 2), Domain: core.Grid(2, 0, 1, 2)},
	} {
		conformKinds(t, executors, name, spec)
	}
}

// TestBatchDifferentialDivergenceHeavy decides handcrafted programs whose
// branches split on the innermost input — every stride diverges — and
// loops that spin a lane-dependent number of steps. The 8-value rows are
// narrower than the widest strides, and chunk boundaries fall mid-row.
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
		m := core.FromProgram(flowchart.MustParse(tc.src))
		conformKinds(t, executors, tc.name, check.Spec{Mechanism: m, Policy: core.NewAllow(2, 1), Domain: core.Domain{axis, axis}})
	}
}

// TestBatchNonFlowchartFallback decides a mechanism with no compiled form: every
// executor runs its strides lane by lane through Mechanism.Run.
func TestBatchNonFlowchartFallback(t *testing.T) {
	m := core.NewFunc("parity", 2, func(in []int64) core.Outcome {
		if (in[0]+in[1])%2 != 0 {
			return core.Outcome{Violation: true, Notice: "odd"}
		}
		return core.Outcome{Value: in[0]}
	})
	conformKinds(t, executors, "func-mechanism", check.Spec{Mechanism: m, Policy: core.NewAllow(2, 1), Domain: core.Grid(2, 0, 1, 2, 3)})
}

// TestNullaryDomainOneTuple decides a zero-input program: the empty
// product's single empty tuple, which the sweep delivers as a call with
// no lanes, is exactly one checked tuple on every executor.
func TestNullaryDomainOneTuple(t *testing.T) {
	m := core.FromProgram(flowchart.MustParse(`
program constant
    y := 7
    halt
`))
	for _, kind := range kinds {
		spec := check.Spec{Kind: kind, Mechanism: m, Program: m, Policy: core.NewAllow(0), Domain: core.Domain{}}
		v := conform(t, kind.String(), spec)
		if v.Checked != 1 {
			t.Errorf("%v: checked %d tuples, want 1", kind, v.Checked)
		}
		if kind == check.PassCount && v.Passes != 1 {
			t.Errorf("%v: %d passes, want 1", kind, v.Passes)
		}
	}
}

// TestBatchMixedMechanisms pairs a compiled program with a core.Func in one
// maximality check, in both roles. Each mechanism picks its own runner,
// so the Func runs its strides lane by lane while the program runs them
// in lockstep — and with the Func as the reference Q, it runs first on
// every stride and must hand the program's lane 0 the stride's first
// tuple back.
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
	v := conform(t, "func-q/compiled-m", check.Spec{Kind: check.Maximality, Mechanism: gate, Program: ident, Policy: pol, Domain: dom})
	if v.Maximal || v.Reason != core.ReasonWithholds || fmt.Sprint(v.Witness) != "[0 4]" {
		t.Fatalf("func-q/compiled-m: verdict %+v, want withholds at [0 4]", v)
	}
	conform(t, "compiled-q/func-m", check.Spec{Kind: check.Maximality, Mechanism: ident, Program: gate, Policy: pol, Domain: dom})
}

// Benchmarks: one per experiment in the registry (E1–E20, see
// internal/experiments), plus ablations for the design choices the core
// library makes. The benchmarks
// measure the cost of the artifact each experiment regenerates — a
// mechanism run, a soundness sweep, a transform, an attack — so the
// relative shapes (surveillance overhead vs raw execution, attack vs
// brute force, zero-overhead certification) are visible in ns/op.
package spm_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"spm/internal/accesscontrol"
	"spm/internal/check"
	"spm/internal/core"
	"spm/internal/experiments"
	"spm/internal/fenton"
	"spm/internal/filesys"
	"spm/internal/flowchart"
	"spm/internal/lattice"
	"spm/internal/logon"
	"spm/internal/paging"
	"spm/internal/progen"
	"spm/internal/querydb"
	"spm/internal/static"
	"spm/internal/surveillance"
	"spm/internal/tape"
	"spm/internal/transform"
)

const benchForgetful = `
program forgetful
inputs x1 x2
    r := x1
    r := 0
    if x2 == 0 goto Zero else NonZero
Zero:    y := r
         halt
NonZero: y := x1
         halt
`

const benchEx7 = `
program ex7
inputs x1 x2
    if x1 == 1 goto A else B
A:  r := 1
    goto J
B:  r := 2
    goto J
J:  y := 1
    halt
`

const benchEx8 = `
program ex8
inputs x1 x2
    if x2 == 1 goto A else B
A:  y := 1
    goto J
B:  y := x1
    goto J
J:  halt
`

const benchEx9 = `
program ex9
inputs x1 x2
    if x1 == 0 goto A else B
A:  y := 1
    goto J
B:  y := x2
    goto J
J:  halt
`

const benchTiming = `
program timing
inputs x1
Loop: if x1 == 0 goto Done else Body
Body: x1 := x1 - 1
      goto Loop
Done: y := 1
      halt
`

func mustRun(b *testing.B, m core.Mechanism, in []int64) core.Outcome {
	b.Helper()
	o, err := m.Run(in)
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// BenchmarkE01TrivialMechanisms measures the two Example 3 mechanisms.
func BenchmarkE01TrivialMechanisms(b *testing.B) {
	b.Run("null", func(b *testing.B) {
		m := core.NewNull(3)
		in := []int64{1, 2, 3}
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
	b.Run("program-as-mechanism", func(b *testing.B) {
		m := logon.Program()
		in := []int64{0, 73, 3}
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
}

// BenchmarkE02LogonSoundness measures the exhaustive soundness check that
// exposes the logon leak.
func BenchmarkE02LogonSoundness(b *testing.B) {
	q := logon.Program()
	pol := logon.Policy()
	dom := logon.Domain(3)
	b.ReportMetric(float64(dom.Size()), "inputs/check")
	for i := 0; i < b.N; i++ {
		rep, err := core.CheckSoundness(q, pol, dom, core.ObserveValue)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Sound {
			b.Fatal("logon should be unsound")
		}
	}
}

// BenchmarkE03SurveillanceVsHighWater compares the two dynamic
// mechanisms' per-run cost against the bare program.
func BenchmarkE03SurveillanceVsHighWater(b *testing.B) {
	q := flowchart.MustParse(benchForgetful)
	J := lattice.NewIndexSet(2)
	in := []int64{7, 0}
	b.Run("Q", func(b *testing.B) {
		m := core.FromProgram(q)
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
	b.Run("surveillance", func(b *testing.B) {
		m := surveillance.MustMechanism(q, J, surveillance.Untimed)
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
	b.Run("high-water", func(b *testing.B) {
		m := surveillance.MustMechanism(q, J, surveillance.Monotone)
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
}

// BenchmarkE04SurveillanceNotMaximal measures the maximal mechanism (Q
// itself) against surveillance on the p. 49 program.
func BenchmarkE04SurveillanceNotMaximal(b *testing.B) {
	q := flowchart.MustParse(`
program botharms
inputs x1 x2
    if x1 == 0 goto A else B
A:  y := x2
    halt
B:  y := x2
    halt
`)
	in := []int64{1, 2}
	b.Run("Mmax=Q", func(b *testing.B) {
		m := core.FromProgram(q)
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
	b.Run("Ms", func(b *testing.B) {
		m := surveillance.MustMechanism(q, lattice.NewIndexSet(2), surveillance.Untimed)
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
}

// BenchmarkE05IfThenElseTransform measures the Example 7 transform and the
// resulting mechanism.
func BenchmarkE05IfThenElseTransform(b *testing.B) {
	q := flowchart.MustParse(benchEx7)
	b.Run("transform", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := transform.IfThenElseAll(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("transformed-run", func(b *testing.B) {
		qt, _, err := transform.IfThenElseAll(q)
		if err != nil {
			b.Fatal(err)
		}
		m := surveillance.MustMechanism(qt, lattice.NewIndexSet(2), surveillance.Untimed)
		in := []int64{1, 2}
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
}

// BenchmarkE06TransformHurts measures the Example 8 comparison pair.
func BenchmarkE06TransformHurts(b *testing.B) {
	q := flowchart.MustParse(benchEx8)
	qt, _, err := transform.IfThenElseAll(q)
	if err != nil {
		b.Fatal(err)
	}
	in := []int64{1, 1}
	b.Run("plain", func(b *testing.B) {
		m := surveillance.MustMechanism(q, lattice.NewIndexSet(2), surveillance.Untimed)
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
	b.Run("transformed", func(b *testing.B) {
		m := surveillance.MustMechanism(qt, lattice.NewIndexSet(2), surveillance.Untimed)
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
}

// BenchmarkE07SoundnessSweep measures one generated-program soundness
// check, the unit of the Theorem 3/3' property sweep.
func BenchmarkE07SoundnessSweep(b *testing.B) {
	q := progen.Generate(rand.New(rand.NewSource(1975)), progen.DefaultConfig(2))
	J := lattice.NewIndexSet(1)
	m := surveillance.MustMechanism(q, J, surveillance.Untimed)
	pol := core.NewAllowSet(2, J)
	dom := core.Grid(2, 0, 1, 2)
	for i := 0; i < b.N; i++ {
		rep, err := core.CheckSoundness(m, pol, dom, core.ObserveValue)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Sound {
			b.Fatal("Theorem 3 violated")
		}
	}
}

// BenchmarkE08TimingChannel compares the untimed mechanism (which lets the
// loop run) with the timed one (which halts immediately).
func BenchmarkE08TimingChannel(b *testing.B) {
	q := flowchart.MustParse(benchTiming)
	in := []int64{64}
	b.Run("untimed-M", func(b *testing.B) {
		m := surveillance.MustMechanism(q, lattice.EmptySet, surveillance.Untimed)
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
	b.Run("timed-M'", func(b *testing.B) {
		m := surveillance.MustMechanism(q, lattice.EmptySet, surveillance.Timed)
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
}

// BenchmarkE09Specialization measures building and running the Example 9
// compile-time mechanism.
func BenchmarkE09Specialization(b *testing.B) {
	q := flowchart.MustParse(benchEx9)
	J := lattice.NewIndexSet(1)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := static.Specialize(q, J, -1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("run", func(b *testing.B) {
		gm, err := static.Specialize(q, J, -1)
		if err != nil {
			b.Fatal(err)
		}
		in := []int64{0, 2}
		for i := 0; i < b.N; i++ {
			mustRun(b, gm, in)
		}
	})
}

// BenchmarkE10PasswordWorkFactor measures the attack and the brute-force
// baseline; the ratio is the paper's n^k → n·k reduction.
func BenchmarkE10PasswordWorkFactor(b *testing.B) {
	const n = 8
	stored := []byte("hfcb")
	b.Run("attack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mem := paging.MustNew(64, 16)
			c, err := logon.NewChecker(mem, stored, 0)
			if err != nil {
				b.Fatal(err)
			}
			wf, err := logon.PageBoundaryAttack(c, n)
			if err != nil || !wf.Found {
				b.Fatal(err)
			}
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mem := paging.MustNew(64, 16)
			c, err := logon.NewChecker(mem, stored, 0)
			if err != nil {
				b.Fatal(err)
			}
			wf, err := logon.BruteForceAgainst(c, n)
			if err != nil || !wf.Found {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE11FentonHalt measures data-mark machine runs under both halt
// semantics.
func BenchmarkE11FentonHalt(b *testing.B) {
	p := fenton.MustAssemble("leak", `
    brz r1 ZERO
    jmp JOIN
ZERO: halt
JOIN: halt
`)
	for _, sem := range []fenton.HaltSemantics{fenton.HaltAsNoop, fenton.HaltAsError} {
		sem := sem
		b.Run(sem.String(), func(b *testing.B) {
			m, err := fenton.NewMechanism(p, 1, lattice.EmptySet, sem)
			if err != nil {
				b.Fatal(err)
			}
			in := []int64{0}
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE12UnionTheorem measures the union mechanism against a single
// member.
func BenchmarkE12UnionTheorem(b *testing.B) {
	q := flowchart.MustParse(benchForgetful)
	J := lattice.NewIndexSet(2)
	ms := surveillance.MustMechanism(q, J, surveillance.Untimed)
	mh := surveillance.MustMechanism(q, J, surveillance.Monotone)
	in := []int64{7, 0}
	b.Run("member", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustRun(b, ms, in)
		}
	})
	b.Run("union", func(b *testing.B) {
		u := core.MustUnion("u", ms, mh)
		for i := 0; i < b.N; i++ {
			mustRun(b, u, in)
		}
	})
}

// BenchmarkE13TapeTab measures the three tape readers; constant tab's cost
// is independent of block 1, walk's is not.
func BenchmarkE13TapeTab(b *testing.B) {
	in := []int64{123456789012345, 42}
	readers := []core.Mechanism{
		&tape.Reader{UseTab: false},
		&tape.Reader{UseTab: true, Cost: tape.TabLinear},
		&tape.Reader{UseTab: true, Cost: tape.TabConstant},
	}
	for _, m := range readers {
		m := m
		b.Run(m.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, m, in)
			}
		})
	}
}

// BenchmarkE14MaximalReduction measures the finite-domain soundness test
// at the heart of the Theorem 4 demonstration.
func BenchmarkE14MaximalReduction(b *testing.B) {
	a := []int64{0, 0, 1, 0}
	q := core.NewFunc("Q_A", 1, func(in []int64) core.Outcome {
		x := in[0]
		if x < 0 || x >= int64(len(a)) {
			return core.Outcome{Value: 0, Steps: 1}
		}
		return core.Outcome{Value: a[x], Steps: 1}
	})
	pol := core.NewAllow(1)
	dom := core.Grid(1, 0, 1, 2, 3)
	for i := 0; i < b.N; i++ {
		if _, err := core.CheckSoundness(q, pol, dom, core.ObserveValue); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE15FileSystem measures the gatekeeper against the raw program.
func BenchmarkE15FileSystem(b *testing.B) {
	s, err := filesys.New(2)
	if err != nil {
		b.Fatal(err)
	}
	in := []int64{filesys.YES, 0, 70, 90, 1}
	b.Run("gatekeeper", func(b *testing.B) {
		m := s.Gatekeeper()
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
	b.Run("raw", func(b *testing.B) {
		m := s.Program()
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
}

// BenchmarkE16WhileTransform measures loop unrolling and the unrolled
// mechanism.
func BenchmarkE16WhileTransform(b *testing.B) {
	q := flowchart.MustParse(`
program whileloop
inputs x1 x2
    r := x1
Loop: if r > 0 goto Body else Done
Body: r := r - 1
      goto Loop
Done: y := x2
      halt
`)
	loops, err := transform.FindLoops(q)
	if err != nil || len(loops) != 1 {
		b.Fatal("loop detection failed")
	}
	b.Run("unroll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := transform.Unroll(q, loops[0], 8); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unrolled-run", func(b *testing.B) {
		qt, err := transform.Unroll(q, loops[0], 8)
		if err != nil {
			b.Fatal(err)
		}
		m := surveillance.MustMechanism(qt, lattice.NewIndexSet(2), surveillance.Untimed)
		in := []int64{8, 3}
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
}

// BenchmarkE17HistoryPolicy measures the history-aware gatekeeper's
// per-query cost as the answered history grows.
func BenchmarkE17HistoryPolicy(b *testing.B) {
	db, err := querydb.NewDB([]int64{30, 50, 20, 40, 10, 60, 70, 80})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("size-only", func(b *testing.B) {
		s := querydb.NewSession(db, querydb.SizeOnly, 2)
		for i := 0; i < b.N; i++ {
			s.Query([]int{i % 7, (i + 1) % 7})
		}
	})
	b.Run("history-aware", func(b *testing.B) {
		s := querydb.NewSession(db, querydb.HistoryAware, 2)
		for i := 0; i < b.N; i++ {
			s.Query([]int{i % 7, (i + 1) % 7, (i + 3) % 7})
		}
	})
}

// BenchmarkAblationInstrumentationOverhead quantifies the design decision
// to express mechanisms as instrumented flowcharts: the factor
// between raw interpretation and each instrumented variant on a
// loop-heavy program.
func BenchmarkAblationInstrumentationOverhead(b *testing.B) {
	q := flowchart.MustParse(benchTiming)
	in := []int64{128}
	J := lattice.AllInputs(1) // allow everything so the loop actually runs
	b.Run("raw", func(b *testing.B) {
		m := core.FromProgram(q)
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
	for _, v := range []surveillance.Variant{surveillance.Untimed, surveillance.Timed, surveillance.Monotone} {
		v := v
		b.Run(v.String(), func(b *testing.B) {
			m := surveillance.MustMechanism(q, J, v)
			for i := 0; i < b.N; i++ {
				mustRun(b, m, in)
			}
		})
	}
}

// BenchmarkAblationStaticZeroOverhead shows certified programs run at raw
// speed while dynamic surveillance pays per-box costs.
func BenchmarkAblationStaticZeroOverhead(b *testing.B) {
	q := flowchart.MustParse("program clean\ninputs x1 x2\n y := x2 + 1\n halt\n")
	J := lattice.NewIndexSet(2)
	in := []int64{5, 9}
	b.Run("certified", func(b *testing.B) {
		m, rep, err := static.Mechanism(q, J)
		if err != nil || !rep.OK {
			b.Fatal("certification should succeed")
		}
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
	b.Run("surveillance", func(b *testing.B) {
		m := surveillance.MustMechanism(q, J, surveillance.Untimed)
		for i := 0; i < b.N; i++ {
			mustRun(b, m, in)
		}
	})
}

// BenchmarkExperimentTables measures regenerating the full experiment
// report, the unit of work of cmd/spm-experiments.
func BenchmarkExperimentTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := experiments.RunAll(discard{}); err != nil {
			b.Fatal(err)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkAblationCompiledVsInterpreted separates the execution engine's
// cost from the instrumentation's: the same (instrumented) program run by
// the map-environment interpreter and by the slot-compiled executor.
func BenchmarkAblationCompiledVsInterpreted(b *testing.B) {
	q := flowchart.MustParse(benchTiming)
	inst, err := surveillance.Instrument(q, lattice.AllInputs(1), surveillance.Untimed)
	if err != nil {
		b.Fatal(err)
	}
	in := []int64{128}
	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := inst.RunBudget(in, flowchart.DefaultMaxSteps, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		c, err := inst.Compile()
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := c.Run(in, flowchart.DefaultMaxSteps); err != nil {
				b.Fatal(err)
			}
		}
	})
}

const benchSweep = `
program sweepdemo
inputs x1 x2
    i := x1 & 127
Loop: if i == 0 goto Done else Body
Body: i := i - 1
      goto Loop
Done: y := x2
      halt
`

// BenchmarkAblationSweepEngine is the sequential-vs-engine ablation for the
// shared sweep engine: the same soundness verdict over a ≥10⁵-tuple domain,
// computed by the sequential tree-walking checker and by the chunked
// work-stealing engine at increasing worker counts. The engine rows include
// the compiled fast path (the mechanism wraps a flowchart program), which
// is where most of the single-core factor comes from; extra workers then
// scale it across CPUs.
func BenchmarkAblationSweepEngine(b *testing.B) {
	q := flowchart.MustParse(benchSweep)
	m := core.FromProgram(q)
	pol := core.NewAllow(2, 2)
	dom := core.Grid(2, core.Range(0, 399)...) // 400² = 160,000 tuples
	b.Run("sequential", func(b *testing.B) {
		b.ReportMetric(float64(dom.Size()), "inputs/check")
		for i := 0; i < b.N; i++ {
			rep, err := core.CheckSoundness(m, pol, dom, core.ObserveValue)
			if err != nil || !rep.Sound {
				b.Fatalf("rep=%v err=%v", rep, err)
			}
		}
	})
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("engine-%dw", workers), func(b *testing.B) {
			b.ReportMetric(float64(dom.Size()), "inputs/check")
			for i := 0; i < b.N; i++ {
				v, err := check.Run(context.Background(), check.Spec{
					Kind: check.Soundness, Mechanism: m, Policy: pol, Domain: dom,
				}, check.WithWorkers(workers))
				if err != nil || !v.Sound {
					b.Fatalf("v=%+v err=%v", v, err)
				}
			}
		})
	}
}

// BenchmarkBatchSweep is the stride-width ablation on the same
// 160,000-tuple domain as BenchmarkAblationSweepEngine: benchSweep's loop
// depends only on the outer input, so the snapshot stack records one
// capture per row of 400 innermost values and replays just the tail
// (`y := x2`; halt) for the rest. batch1 runs one-lane strides, batch8
// and batch32 stride the innermost axis 8 and 32 lanes at a time over
// structure-of-arrays columns — each row's capture feeding every lane,
// instruction dispatch paid once per stride. The 1-worker rows isolate
// per-tuple dispatch cost; the 8-worker rows show width composes with
// work stealing. CI's bench job uploads this as BENCH_batch.json.
func BenchmarkBatchSweep(b *testing.B) {
	q := flowchart.MustParse(benchSweep)
	m := core.FromProgram(q)
	pol := core.NewAllow(2, 2)
	dom := core.Grid(2, core.Range(0, 399)...) // 400² = 160,000 tuples
	for _, workers := range []int{1, 8} {
		for _, width := range []int{1, 8, 32} {
			name := fmt.Sprintf("batch%d-%dw", width, workers)
			b.Run(name, func(b *testing.B) {
				b.ReportMetric(float64(dom.Size()), "inputs/check")
				for i := 0; i < b.N; i++ {
					v, err := check.Run(context.Background(), check.Spec{
						Kind: check.Soundness, Mechanism: m, Policy: pol, Domain: dom,
					}, check.WithWorkers(workers), check.WithBatch(width))
					if err != nil || !v.Sound {
						b.Fatalf("v=%+v err=%v", v, err)
					}
				}
			})
		}
	}
}

// benchStack is a deep-domain program whose cost concentrates in the
// outer axes: each input read is followed by a burn loop whose length
// halves with depth (x1's ≈ 96 iterations, x4's ≈ 12) and the x5 tail is
// a bare copy. The snapshot stack is rewarded exactly for the prefix work
// it avoids re-running: it resumes from the deepest unchanged axis,
// re-running just the loops below the odometer carry.
const benchStack = `
program stackdemo
inputs x1 x2 x3 x4 x5
    i := (x1 & 7) + 768
L1: if i == 0 goto S2 else B1
B1: i := i - 1
    goto L1
S2: i := (x2 & 7) + 384
L2: if i == 0 goto S3 else B2
B2: i := i - 1
    goto L2
S3: i := (x3 & 7) + 192
L3: if i == 0 goto S4 else B3
B3: i := i - 1
    goto L3
S4: i := (x4 & 7) + 96
L4: if i == 0 goto S5 else B4
B4: i := i - 1
    goto L4
S5: y := x5
    halt
`

// BenchmarkSnapshotStack measures the snapshot stack on a deep five-axis
// domain (8⁵ = 32,768 tuples) where prefix work dominates: per-axis
// captures mean an odometer carry at digit d replays only the loops
// below d. stack-1w runs at the default stride width, stack-width1-1w on
// one-lane strides, and the 8-worker row shows the stack composes with
// work stealing. CI's bench job uploads this as BENCH_memostack.json.
func BenchmarkSnapshotStack(b *testing.B) {
	q := flowchart.MustParse(benchStack)
	m := core.FromProgram(q)
	pol := core.NewAllow(5, 5)
	dom := core.Grid(5, core.Range(0, 7)...) // 8⁵ = 32,768 tuples
	run := func(name string, opts ...check.Option) {
		b.Run(name, func(b *testing.B) {
			b.ReportMetric(float64(dom.Size()), "inputs/check")
			for i := 0; i < b.N; i++ {
				v, err := check.Run(context.Background(), check.Spec{
					Kind: check.Soundness, Mechanism: m, Policy: pol, Domain: dom,
				}, opts...)
				if err != nil || !v.Sound {
					b.Fatalf("v=%+v err=%v", v, err)
				}
			}
		})
	}
	run("stack-1w", check.WithWorkers(1))
	run("stack-width1-1w", check.WithWorkers(1), check.WithBatch(1))
	run("stack-8w", check.WithWorkers(8))
}

// BenchmarkAblationSweepMaximality measures the one-pass parallel
// maximality checker against its sequential counterpart on the same
// flowchart-backed mechanism.
func BenchmarkAblationSweepMaximality(b *testing.B) {
	q := flowchart.MustParse(benchSweep)
	m := core.FromProgram(q)
	pol := core.NewAllow(2, 2)
	dom := core.Grid(2, core.Range(0, 63)...)
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := core.CheckMaximality(m, m, pol, dom, core.ObserveValue)
			if err != nil || !rep.Maximal {
				b.Fatalf("rep=%v err=%v", rep, err)
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, err := check.Run(context.Background(), check.Spec{
				Kind: check.Maximality, Mechanism: m, Program: m, Policy: pol, Domain: dom,
			}, check.WithWorkers(8))
			if err != nil || !v.Maximal {
				b.Fatalf("v=%+v err=%v", v, err)
			}
		}
	})
}

// BenchmarkE19AccessVsFlowControl measures the Example 6 monitors on the
// laundering script.
func BenchmarkE19AccessVsFlowControl(b *testing.B) {
	script := accesscontrol.MustScript("laundered", 2, accesscontrol.Copy(1, 2), accesscontrol.Read(2))
	protected := lattice.NewIndexSet(1)
	in := []int64{7, 9}
	for _, mon := range []accesscontrol.Monitor{accesscontrol.AccessControl, accesscontrol.FlowControl} {
		mon := mon
		b.Run(mon.String(), func(b *testing.B) {
			m, err := accesscontrol.NewMechanism(script, protected, mon)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := m.Run(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE18IntegrityDual measures surveillance enforcing the integrity
// dual (trusted-inputs-only influence).
func BenchmarkE18IntegrityDual(b *testing.B) {
	q := flowchart.MustParse(`
program mixer
inputs x1 x2
    if x1 == 0 goto Clean else Dirty
Clean: y := x1
       halt
Dirty: y := x1 + x2
       halt
`)
	m := surveillance.MustMechanism(q, lattice.NewIndexSet(1), surveillance.Untimed)
	in := []int64{1, 2}
	for i := 0; i < b.N; i++ {
		mustRun(b, m, in)
	}
}

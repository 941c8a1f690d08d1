package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"spm/internal/flowchart"
	"spm/internal/sweep"
)

// tableMech builds a deterministic random mechanism over a domain: each
// input maps to a fixed outcome, violating with probability pViolate.
func tableMech(r *rand.Rand, name string, dom Domain, values int64, pViolate float64) Mechanism {
	table := make(map[string]Outcome)
	_ = dom.Enumerate(func(in []int64) error {
		o := Outcome{Value: r.Int63n(values), Steps: 1 + r.Int63n(3)}
		if r.Float64() < pViolate {
			o = Outcome{Violation: true, Notice: "gate", Steps: 1}
		}
		table[FormatInputs(in)] = o
		return nil
	})
	return NewFunc(name, len(dom), func(in []int64) Outcome {
		return table[FormatInputs(in)]
	})
}

// randomDomain builds a domain of up to maxArity positions with distinct
// small values per position.
func randomDomain(r *rand.Rand, maxArity int) Domain {
	k := 1 + r.Intn(maxArity)
	dom := make(Domain, k)
	for i := range dom {
		n := 2 + r.Intn(4)
		vs := make([]int64, n)
		for j := range vs {
			vs[j] = int64(j)
		}
		dom[i] = vs
	}
	return dom
}

// TestSweepSoundnessMatchesSequentialRandomized is the verdict-equivalence
// property test of the engine against the sequential checker: random
// domains, random mechanisms, random policies, random engine settings.
func TestSweepSoundnessMatchesSequentialRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(48))
	for trial := 0; trial < 60; trial++ {
		dom := randomDomain(r, 3)
		k := len(dom)
		var idx []int
		for i := 1; i <= k; i++ {
			if r.Intn(2) == 0 {
				idx = append(idx, i)
			}
		}
		pol := NewAllow(k, idx...)
		m := tableMech(r, "rand", dom, 2+r.Int63n(3), 0.2)
		obs := ObserveValue
		if r.Intn(2) == 0 {
			obs = ObserveValueAndTime
		}
		seq, err := CheckSoundness(m, pol, dom, obs)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sweep.Config{Workers: 1 + r.Intn(6), Chunk: 1 + r.Intn(8)}
		par, err := CheckSoundnessContext(context.Background(), m, pol, dom, obs, CheckConfig{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if par.Sound != seq.Sound || par.Checked != seq.Checked {
			t.Fatalf("trial %d cfg %+v: engine (sound=%v checked=%d) vs sequential (sound=%v checked=%d)",
				trial, cfg, par.Sound, par.Checked, seq.Sound, seq.Checked)
		}
		if !par.Sound {
			if pol.View(par.WitnessA) != pol.View(par.WitnessB) {
				t.Fatalf("trial %d: witnesses %v, %v not in one class", trial, par.WitnessA, par.WitnessB)
			}
			if par.ObsA == par.ObsB {
				t.Fatalf("trial %d: witness observations both %q", trial, par.ObsA)
			}
		}
	}
}

// TestSweepMaximalityMatchesSequentialRandomized property-tests the
// parallel maximality checker against the sequential one.
func TestSweepMaximalityMatchesSequentialRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(49))
	for trial := 0; trial < 60; trial++ {
		dom := randomDomain(r, 3)
		k := len(dom)
		pol := NewAllow(k, 1+r.Intn(k))
		q := tableMech(r, "q", dom, 2, 0)
		var m Mechanism
		switch trial % 3 {
		case 0: // the genuine maximal mechanism — must check as maximal
			mm, err := Maximal(q, pol, dom, ObserveValue)
			if err != nil {
				t.Fatal(err)
			}
			m = mm
		case 1: // a random gate — usually not maximal
			m = tableMech(r, "m", dom, 2, 0.3)
		default: // the bare program — maximal exactly when sound
			m = q
		}
		seq, err := CheckMaximality(m, q, pol, dom, ObserveValue)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sweep.Config{Workers: 1 + r.Intn(6), Chunk: 1 + r.Intn(8)}
		par, err := CheckMaximalityContext(context.Background(), m, q, pol, dom, ObserveValue, CheckConfig{Config: cfg})
		if err != nil {
			t.Fatal(err)
		}
		if par.Maximal != seq.Maximal || par.Checked != seq.Checked {
			t.Fatalf("trial %d cfg %+v: engine (maximal=%v checked=%d) vs sequential (maximal=%v checked=%d)",
				trial, cfg, par.Maximal, par.Checked, seq.Maximal, seq.Checked)
		}
		// randomDomain lists every axis in ascending order, so the least
		// deviating input is the sequential checker's first.
		if !reflect.DeepEqual(par.Witness, seq.Witness) || par.Reason != seq.Reason {
			t.Fatalf("trial %d cfg %+v: engine witness %v (%q) vs sequential %v (%q)",
				trial, cfg, par.Witness, par.Reason, seq.Witness, seq.Reason)
		}
		if trial%3 == 0 && !par.Maximal {
			t.Fatalf("trial %d: Theorem 2 tabulation rejected as non-maximal: %s", trial, par)
		}
	}
}

// TestCheckMaximalityVerdicts pins the three failure reasons.
func TestCheckMaximalityVerdicts(t *testing.T) {
	q := ident2() // Q(x1,x2) = x2
	pol := NewAllow(2, 2)
	dom := smallDom()

	// Q is sound for allow(2), so Q itself is maximal.
	rep, err := CheckMaximalityContext(context.Background(), q, q, pol, dom, ObserveValue, CheckConfig{Config: sweep.Config{Workers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Maximal {
		t.Errorf("sound Q not maximal: %s", rep)
	}

	// Null withholds everywhere although every class is Q-constant.
	rep, err = CheckMaximalityContext(context.Background(), NewNull(2), q, pol, dom, ObserveValue, CheckConfig{Config: sweep.Config{Workers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Maximal || rep.Reason != ReasonWithholds {
		t.Errorf("null verdict = %s", rep)
	}

	// Leaky: Q(x1,x2) = x1 under allow(2) passes on varying classes.
	leaky := NewFunc("x1", 2, func(in []int64) Outcome {
		return Outcome{Value: in[0], Steps: 1}
	})
	rep, err = CheckMaximalityContext(context.Background(), leaky, leaky, pol, dom, ObserveValue, CheckConfig{Config: sweep.Config{Workers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Maximal || rep.Reason != ReasonLeaks {
		t.Errorf("leaky verdict = %s", rep)
	}

	// Altering: passes everywhere but with the wrong value.
	wrong := NewFunc("x2+1", 2, func(in []int64) Outcome {
		return Outcome{Value: in[1] + 1, Steps: 1}
	})
	rep, err = CheckMaximalityContext(context.Background(), wrong, q, pol, dom, ObserveValue, CheckConfig{Config: sweep.Config{Workers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Maximal || rep.Reason != ReasonAlters {
		t.Errorf("altering verdict = %s", rep)
	}
}

// TestMaximalityCrossShardMerge forces the class-constancy evidence to span
// chunks: with chunk size 1 every tuple lands in its own scheduling unit,
// so a class's varying observations are only visible after the worker
// tables merge. Q(x1,x2) = x1 varies within every allow(2) class.
func TestMaximalityCrossShardMerge(t *testing.T) {
	q := NewFunc("x1", 2, func(in []int64) Outcome {
		return Outcome{Value: in[0], Steps: 1}
	})
	pol := NewAllow(2, 2)
	dom := Grid(2, 0, 1, 2, 3)
	// Q passes everywhere; since its classes vary, it must not be maximal,
	// and the only way to see that is the cross-worker merge.
	rep, err := CheckMaximalityContext(context.Background(), q, q, pol, dom, ObserveValue, CheckConfig{Config: sweep.Config{Workers: 4, Chunk: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Maximal || rep.Reason != ReasonLeaks {
		t.Errorf("cross-shard class variation missed: %s", rep)
	}
	// And the null mechanism — which violates everywhere — IS maximal
	// here, which again only the merged table can certify.
	rep, err = CheckMaximalityContext(context.Background(), NewNull(2), q, pol, dom, ObserveValue, CheckConfig{Config: sweep.Config{Workers: 4, Chunk: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Maximal {
		t.Errorf("null should be maximal for an everywhere-varying Q: %s", rep)
	}
}

// TestSoundnessCrossShardMergeChunked is the conflict-merge test at chunk
// granularity: conflicting views never co-reside in a worker's chunk.
func TestSoundnessCrossShardMergeChunked(t *testing.T) {
	q := NewFunc("x1", 2, func(in []int64) Outcome {
		return Outcome{Value: in[0], Steps: 1}
	})
	pol := NewAllow(2, 2) // input 1 disallowed: views span shards
	dom := Grid(2, 0, 1, 2, 3)
	for _, chunk := range []int{1, 2, 3} {
		rep, err := CheckSoundnessContext(context.Background(), q, pol, dom, ObserveValue, CheckConfig{Config: sweep.Config{Workers: 4, Chunk: chunk}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sound {
			t.Errorf("chunk %d: cross-shard conflict missed", chunk)
		}
		if pol.View(rep.WitnessA) != pol.View(rep.WitnessB) || rep.ObsA == rep.ObsB {
			t.Errorf("chunk %d: bogus witness pair %v/%v (%q vs %q)",
				chunk, rep.WitnessA, rep.WitnessB, rep.ObsA, rep.ObsB)
		}
	}
}

// TestCompiledFastPathMatchesInterpreter checks the engine's compiled fast
// path end to end: a flowchart-backed mechanism swept in parallel must
// produce the sequential interpreter's verdicts.
func TestCompiledFastPathMatchesInterpreter(t *testing.T) {
	q := flowchart.MustParse(`
program fast
inputs x1 x2
    i := x1 & 3
Loop: if i == 0 goto Done else Body
Body: i := i - 1
      goto Loop
Done: y := x2
      halt
`)
	m := FromProgram(q)
	dom := Grid(2, Range(0, 7)...)
	for _, tc := range []struct {
		pol Policy
		obs Observation
	}{
		{NewAllow(2, 2), ObserveValue},           // sound: y = x2
		{NewAllow(2, 2), ObserveValueAndTime},    // unsound: steps leak x1
		{NewAllow(2, 1, 2), ObserveValueAndTime}, // sound: everything allowed
	} {
		seq, err := CheckSoundness(m, tc.pol, dom, tc.obs)
		if err != nil {
			t.Fatal(err)
		}
		par, err := CheckSoundnessContext(context.Background(), m, tc.pol, dom, tc.obs, CheckConfig{Config: sweep.Config{Workers: 4, Chunk: 5}})
		if err != nil {
			t.Fatal(err)
		}
		if par.Sound != seq.Sound || par.Checked != seq.Checked {
			t.Errorf("%s/%s: engine (sound=%v) vs interpreter (sound=%v)",
				tc.pol.Name(), tc.obs.ObsName, par.Sound, seq.Sound)
		}
	}
	// Pass counting through the fast path.
	passes, err := PassCountContext(context.Background(), m, dom, CheckConfig{Config: sweep.Config{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if passes != dom.Size() {
		t.Errorf("fast-path pass count = %d, want %d", passes, dom.Size())
	}
}

// TestPassCountParallel checks the counter against a hand count and the
// arity guard.
func TestPassCountParallel(t *testing.T) {
	even := passOn("even", func(v int64) bool { return v%2 == 0 })
	dom := Grid(2, 0, 1, 2, 3)
	got, err := PassCountContext(context.Background(), even, dom, CheckConfig{Config: sweep.Config{Workers: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 8 { // x2 ∈ {0,2} passes, 4 values of x1 each
		t.Errorf("pass count = %d, want 8", got)
	}
	if _, err := PassCountContext(context.Background(), even, Grid(1, 0), CheckConfig{Config: sweep.Config{Workers: 2}}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

// TestMaximalityErrorPropagation: a failing mechanism run surfaces as an
// error, not a verdict.
func TestMaximalityErrorPropagation(t *testing.T) {
	bad := &errOnValue{v: 5}
	dom := Grid(1, Range(0, 7)...)
	if _, err := CheckMaximalityContext(context.Background(), bad, bad, NewAllow(1, 1), dom, ObserveValue, CheckConfig{Config: sweep.Config{Workers: 4}}); err == nil {
		t.Error("worker error not propagated")
	}
	if _, err := CheckMaximalityContext(context.Background(), NewNull(2), NewNull(1), NewAllow(1, 1), dom, ObserveValue, CheckConfig{Config: sweep.Config{Workers: 2}}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

package core

import (
	"context"
	"fmt"
	"testing"

	"spm/internal/sweep"
)

// passOn builds a sound mechanism for Q(x1,x2) = x2 / allow(2) that passes
// exactly on inputs where pred(x2) holds.
func passOn(name string, pred func(int64) bool) Mechanism {
	return NewFunc(name, 2, func(in []int64) Outcome {
		if pred(in[1]) {
			return Outcome{Value: in[1], Steps: 1}
		}
		return Outcome{Violation: true, Notice: name, Steps: 1}
	})
}

func TestIntersectBasics(t *testing.T) {
	even := passOn("even", func(v int64) bool { return v%2 == 0 })
	small := passOn("small", func(v int64) bool { return v < 2 })
	x := MustIntersect("even∧small", even, small)
	dom := smallDom()
	// Passes exactly where both pass: x2 = 0.
	err := dom.Enumerate(func(in []int64) error {
		o, err := x.Run(in)
		if err != nil {
			return err
		}
		want := in[1] == 0
		if want != !o.Violation {
			t.Errorf("meet%v = %v", in, o)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Notice comes from the first violating member.
	o, err := x.Run([]int64{0, 1}) // even fails first
	if err != nil {
		t.Fatal(err)
	}
	if o.Notice != "even" {
		t.Errorf("notice = %q, want first violator's", o.Notice)
	}
}

func TestIntersectErrors(t *testing.T) {
	if _, err := Intersect("none"); err == nil {
		t.Error("empty intersection accepted")
	}
	if _, err := Intersect("mix", NewNull(1), NewNull(2)); err == nil {
		t.Error("arity mismatch accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustIntersect did not panic")
		}
	}()
	MustIntersect("boom")
}

// TestSoundMechanismLattice verifies the paper's remark that, with a
// single violation notice, the sound protection mechanisms for (Q, I)
// form a lattice: union is the join and intersection is the meet, both
// sound, with the expected order relations.
func TestSoundMechanismLattice(t *testing.T) {
	pol := NewAllow(2, 2)
	dom := smallDom()
	obs := CoarseNotices(ObserveValue)
	a := passOn("A", func(v int64) bool { return v%2 == 0 })
	b := passOn("B", func(v int64) bool { return v < 2 })
	join := MustUnion("A∨B", a, b)
	meet := MustIntersect("A∧B", a, b)

	for _, m := range []Mechanism{a, b, join, meet} {
		rep, err := CheckSoundness(m, pol, dom, obs)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Sound {
			t.Errorf("%s unsound: %s", m.Name(), rep)
		}
	}
	// meet ≤ a, b ≤ join.
	for _, m := range []Mechanism{a, b} {
		up, err := Compare(join, m, dom)
		if err != nil {
			t.Fatal(err)
		}
		if up.Relation == LessComplete || up.Relation == Incomparable {
			t.Errorf("join %s %s", up.Relation, m.Name())
		}
		down, err := Compare(meet, m, dom)
		if err != nil {
			t.Fatal(err)
		}
		if down.Relation == MoreComplete || down.Relation == Incomparable {
			t.Errorf("meet %s %s", down.Relation, m.Name())
		}
	}
	// Absorption: a ∨ (a ∧ b) ≡ a and a ∧ (a ∨ b) ≡ a (as pass sets).
	absorb1 := MustUnion("a∨(a∧b)", a, meet)
	absorb2 := MustIntersect("a∧(a∨b)", a, join)
	for _, tc := range []Mechanism{absorb1, absorb2} {
		rel, err := Compare(tc, a, dom)
		if err != nil {
			t.Fatal(err)
		}
		if rel.Relation != Equal {
			t.Errorf("%s vs a: %s, want equal (absorption)", tc.Name(), rel.Relation)
		}
	}
}

func TestParallelCheckMatchesSequential(t *testing.T) {
	q := ident2()
	dom := Grid(2, 0, 1, 2, 3, 4, 5)
	for _, pol := range []Policy{NewAllow(2, 2), NewAllow(2, 1), NewAllow(2), NewAllow(2, 1, 2)} {
		seq, err := CheckSoundness(q, pol, dom, ObserveValue)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 1, 2, 3, 7} {
			par, err := CheckSoundnessContext(context.Background(), q, pol, dom, ObserveValue, CheckConfig{Config: sweep.Config{Workers: workers}})
			if err != nil {
				t.Fatal(err)
			}
			if par.Sound != seq.Sound {
				t.Errorf("policy %s workers %d: parallel sound=%v, sequential %v",
					pol.Name(), workers, par.Sound, seq.Sound)
			}
			if par.Checked != seq.Checked {
				t.Errorf("policy %s workers %d: checked %d vs %d",
					pol.Name(), workers, par.Checked, seq.Checked)
			}
			if !par.Sound {
				// The witness pair must be a genuine counterexample.
				if pol.View(par.WitnessA) != pol.View(par.WitnessB) {
					t.Errorf("witnesses not in the same class: %v %v", par.WitnessA, par.WitnessB)
				}
				if par.ObsA == par.ObsB {
					t.Errorf("witness observations equal: %q", par.ObsA)
				}
			}
		}
	}
}

func TestParallelCheckCrossShardConflict(t *testing.T) {
	// The policy ignores input 1 (the sharding position), so conflicting
	// observations live in different shards: Q(x1,x2) = x1 under allow(2).
	q := NewFunc("x1", 2, func(in []int64) Outcome {
		return Outcome{Value: in[0], Steps: 1}
	})
	pol := NewAllow(2, 2)
	dom := Grid(2, 0, 1, 2, 3)
	rep, err := CheckSoundnessContext(context.Background(), q, pol, dom, ObserveValue, CheckConfig{Config: sweep.Config{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sound {
		t.Error("cross-shard conflict missed")
	}
}

func TestParallelCheckArityMismatch(t *testing.T) {
	if _, err := CheckSoundnessContext(context.Background(), NewNull(2), NewAllow(1), Grid(2, 0), ObserveValue, CheckConfig{Config: sweep.Config{Workers: 2}}); err == nil {
		t.Error("arity mismatch accepted")
	}
}

func TestParallelCheckErrorPropagation(t *testing.T) {
	errMech := &errOnValue{v: 3}
	dom := Grid(1, 0, 1, 2, 3, 4, 5, 6, 7)
	if _, err := CheckSoundnessContext(context.Background(), errMech, NewAllow(1, 1), dom, ObserveValue, CheckConfig{Config: sweep.Config{Workers: 4}}); err == nil {
		t.Error("worker error not propagated")
	}
}

// errOnValue errors when it sees a particular input value.
type errOnValue struct{ v int64 }

func (e *errOnValue) Name() string { return "errOnValue" }
func (e *errOnValue) Arity() int   { return 1 }
func (e *errOnValue) Run(in []int64) (Outcome, error) {
	if in[0] == e.v {
		return Outcome{}, fmt.Errorf("synthetic failure at %d", e.v)
	}
	return Outcome{Value: 0, Steps: 1}, nil
}

package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"spm/internal/flowchart"
	"spm/internal/sweep"
)

// fold3Prog is a 3-input compiled program whose observation varies with
// every input and which halts with a violation notice on part of the
// domain.
const fold3Prog = `
program fold3
inputs x1 x2 x3
    r := x1 * 3 + x2
    if x3 % 5 == 0 goto V else A
A:  if x3 > 2 goto B else C
B:  y := r
    halt
C:  y := x1 + x3
    halt
V:  violation "x3"
`

func fold3(t testing.TB) Mechanism {
	t.Helper()
	cm, err := CompileMechanism(FromProgram(flowchart.MustParse(fold3Prog)))
	if err != nil {
		t.Fatal(err)
	}
	return cm
}

// builtinObservations is every observation the library builds.
var builtinObservations = []Observation{
	ObserveValue,
	ObserveValueAndTime,
	CoarseNotices(ObserveValue),
	CoarseNotices(ObserveValueAndTime),
}

// TestObservationVisibility pins the comparison the fold makes instead of
// comparing renderings: for every built-in observation and random
// outcomes, sees.same(a, b) ⇔ Render(a) == Render(b). A user-built
// observation has no visibility, and neither has CoarseNotices of one;
// the fold compares their outcomes by rendering.
func TestObservationVisibility(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	notices := []string{"", "a", "b", "]@1", "a]@1", "Λ"}
	outcome := func() Outcome {
		return Outcome{
			Value:     int64(r.Intn(3)),
			Steps:     int64(r.Intn(3)),
			Violation: r.Intn(2) == 0,
			Notice:    notices[r.Intn(len(notices))],
		}
	}
	user := Observation{ObsName: "value", Render: ObserveValue.Render}
	for _, obs := range append(builtinObservations, user, CoarseNotices(user)) {
		fk, err := newFoldKeys(NewAllow(0), Domain{}, obs, CheckConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for range 5000 {
			a, b := outcome(), outcome()
			if same, equal := fk.same(&a, &b), obs.Render(a) == obs.Render(b); same != equal {
				t.Fatalf("%s: %+v and %+v: same %v, renderings %q and %q", obs.ObsName, a, b, same, obs.Render(a), obs.Render(b))
			}
		}
	}
	for _, obs := range builtinObservations {
		if !obs.sees.ok {
			t.Fatalf("%s has no visibility", obs.ObsName)
		}
	}
	if user.sees.ok || CoarseNotices(user).sees.ok {
		t.Fatal("a user-built observation has no visibility")
	}
}

// TestFoldKeysRoute pins how the fold keys every question: which
// classifier a class gets (a view key, or an id interned from the view),
// whether outcomes are compared by visibility or by rendering, and when
// the class tables are dense. An oversized domain or a bad shard is the
// sweep's error.
func TestFoldKeysRoute(t *testing.T) {
	asc := Domain{{0, 1, 2, 3}, {-4, 0, 9}, {5, 6}}
	user := Observation{ObsName: "value", Render: ObserveValue.Render}
	content := NewContent("allow(1)", 3, NewAllow(3, 1).View)
	one := sweep.Config{Workers: 1}
	shard := sweep.Config{Workers: 1, Offset: 4, Count: 8}
	for _, c := range []struct {
		name     string
		pol      Policy
		dom      Domain
		obs      Observation
		cfg      sweep.Config
		interned bool
		rendered bool
		dense    bool
	}{
		{"allow", NewAllow(3, 1), asc, ObserveValue, one, false, false, true},
		{"integrity", NewIntegrity(3, 2, 3), asc, CoarseNotices(ObserveValueAndTime), one, false, false, true},
		{"nullary", NewAllow(0), Domain{}, ObserveValue, one, false, false, true},
		{"all-allowed", NewAllow(3, 1, 2, 3), asc, ObserveValue, one, false, false, true},
		{"all-allowed shard", NewAllow(3, 1, 2, 3), asc, ObserveValue, shard, false, false, false},
		{"all-allowed 4 workers", NewAllow(3, 1, 2, 3), asc, ObserveValue, sweep.Config{Workers: 4}, false, false, false},
		{"allow(1) shard", NewAllow(3, 1), asc, ObserveValue, shard, false, false, true},
		{"content", content, asc, ObserveValue, one, true, false, false},
		{"content nullary", NewContent("c", 0, NewAllow(0).View), Domain{}, ObserveValue, one, true, false, false},
		{"user observation", NewAllow(3, 1), asc, user, one, false, true, true},
		{"content, user observation", content, asc, CoarseNotices(user), one, true, true, false},
		{"descending", NewAllow(3, 1), Domain{{3, 2}, {0}, {1}}, ObserveValue, one, false, false, true},
		{"repeated hidden", NewAllow(3, 1), Domain{{0, 1}, {2, 2}, {1}}, ObserveValue, one, false, false, true},
		{"repeated shown", NewAllow(3, 1, 2, 3), Domain{{0, 1}, {2, 2}, {1}}, ObserveValue, one, false, false, true},
		{"empty axis", NewAllow(3, 1), Domain{{0, 1}, {}, {1}}, ObserveValue, one, false, false, false},
	} {
		fk, err := newFoldKeys(c.pol, c.dom, c.obs, CheckConfig{Config: c.cfg})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if interned := fk.intern != nil; interned != c.interned {
			t.Errorf("%s: interned classes %v, want %v", c.name, interned, c.interned)
		}
		if rendered := fk.render != nil; rendered != c.rendered {
			t.Errorf("%s: rendered comparison %v, want %v", c.name, rendered, c.rendered)
		}
		if fk.dense != c.dense {
			t.Errorf("%s: dense tables %v, want %v", c.name, fk.dense, c.dense)
		}
	}

	huge := Grid(4, Range(0, 1<<16)...)
	if _, err := newFoldKeys(NewAllow(4, 1), huge, ObserveValue, CheckConfig{}); !errors.Is(err, sweep.ErrTooLarge) {
		t.Errorf("oversized domain: %v, want %v", err, sweep.ErrTooLarge)
	}
	bad := CheckConfig{Config: sweep.Config{Offset: -1}}
	if _, err := newFoldKeys(NewAllow(3, 1), asc, ObserveValue, bad); !errors.Is(err, sweep.ErrBadRange) {
		t.Errorf("bad shard: %v, want %v", err, sweep.ErrBadRange)
	}
}

// TestFoldKeysDecode pins the bijections the fold relies on, on ascending,
// gapped, unsorted and repeated-value axes: every tuple's value index
// decodes back to it, value indices order tuples as LessInput does and
// coincide exactly on equal tuples, on an ascending domain the value index
// is the sweep's position, and two tuples share a class key exactly when
// they share a view, whether the key is a view key or interned.
func TestFoldKeysDecode(t *testing.T) {
	for _, dom := range []Domain{
		{{-3, 0, 4}, {1, 2}, {-1, 0, 7, 8}},
		{{4, -3, 0}, {2, 1, 2}, {8, 7, 8, -1}},
		{{0, 0}, {3, 1, 2, 1}, {5, 5, 5}},
	} {
		ascending := true
		for _, vs := range dom {
			ascending = ascending && slices.IsSorted(vs) && len(slices.Compact(slices.Clone(vs))) == len(vs)
		}
		content := NewContent("sum", 3, func(in []int64) string { return fmt.Sprint(in[0] + in[2]) })
		for _, pol := range []Policy{NewAllow(3), NewAllow(3, 2), NewIntegrity(3, 1, 3), NewAllow(3, 1, 2, 3), content} {
			name := fmt.Sprintf("%s on %v", pol.Name(), dom)
			fk, err := newFoldKeys(pol, dom, ObserveValue, CheckConfig{})
			if err != nil {
				t.Fatal(err)
			}
			var ids classIDs
			byKey := map[int]string{}
			byView := map[string]int{}
			var tuples [][]int64
			var ats []int
			if err := dom.Enumerate(func(input []int64) error {
				in := slices.Clone(input)
				at0, key0 := fk.prefix(in)
				last := in[len(in)-1:]
				at, key := fk.lane(at0, key0, last, 0)
				if fk.intern != nil {
					key = fk.interned(&ids, in, last, 0)
				}
				if ascending && at != len(tuples) {
					t.Fatalf("%s: %v has value index %d, want %d", name, input, at, len(tuples))
				}
				if got := fk.input(at); !slices.Equal(got, input) {
					t.Fatalf("%s: value index %d decodes to %v, want %v", name, at, got, input)
				}
				if fk.intern == nil && (key < 0 || key >= fk.classes) {
					t.Fatalf("%s: %v has view key %d outside [0, %d)", name, input, key, fk.classes)
				}
				view := pol.View(input)
				if v, ok := byKey[key]; ok && v != view {
					t.Fatalf("%s: key %d holds views %q and %q", name, key, v, view)
				}
				if k, ok := byView[view]; ok && k != key {
					t.Fatalf("%s: view %q has keys %d and %d", name, view, k, key)
				}
				byKey[key], byView[view] = view, key
				tuples, ats = append(tuples, in), append(ats, at)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i := range tuples {
				for j := range tuples {
					if (ats[i] < ats[j]) != LessInput(tuples[i], tuples[j]) {
						t.Fatalf("%s: value indices %d, %d of %v, %v order unlike LessInput", name, ats[i], ats[j], tuples[i], tuples[j])
					}
				}
			}
			if fk.intern == nil && len(byKey) != fk.classes {
				t.Errorf("%s: %d view keys, want %d", name, len(byKey), fk.classes)
			}
		}
	}
}

// TestFoldAllocsIndependentOfDomain pins that the fold allocates per
// question, not per tuple: on a compiled program under allow(1), both
// engines allocate no more on a 40³ domain than on a 20³ one, plus a small
// constant — on ascending axes, with a descending axis, and with a
// repeated value. The chunk size is fixed so the sweep's per-chunk buffers
// stay inside that constant, and the snapshot-stack tier is off, so the
// runner is the plain batch tier; TestStackStrideAllocsIndependentOfRows
// guards the stack tier's runner.
func TestFoldAllocsIndependentOfDomain(t *testing.T) {
	m := fold3(t)
	pol := NewAllow(3, 1)
	cc := CheckConfig{Config: sweep.Config{Workers: 1, Chunk: 1 << 14}, Batch: 16, NoStack: true}
	ctx := context.Background()
	allocs := func(dom Domain) (sound, maximal float64) {
		sound = testing.AllocsPerRun(3, func() {
			if _, err := CheckSoundnessContext(ctx, m, pol, dom, ObserveValue, cc); err != nil {
				t.Fatal(err)
			}
		})
		maximal = testing.AllocsPerRun(3, func() {
			if _, err := CheckMaximalityContext(ctx, m, m, pol, dom, ObserveValue, cc); err != nil {
				t.Fatal(err)
			}
		})
		return sound, maximal
	}
	for _, shape := range []struct {
		name string
		dom  func(n int64) Domain
	}{
		{"ascending", func(n int64) Domain { return Grid(3, Range(0, n-1)...) }},
		{"descending", func(n int64) Domain {
			desc := Range(0, n-1)
			slices.Reverse(desc)
			return Domain{desc, Range(0, n-1), Range(0, n-1)}
		}},
		{"repeated", func(n int64) Domain {
			return Domain{append(Range(0, n-2), 0), Range(0, n-1), Range(0, n-1)}
		}},
	} {
		const slack = 64
		s20, m20 := allocs(shape.dom(20))
		s40, m40 := allocs(shape.dom(40))
		if s40 > s20+slack {
			t.Errorf("%s soundness: %v allocations on 40³, %v on 20³", shape.name, s40, s20)
		}
		if m40 > m20+slack {
			t.Errorf("%s maximality: %v allocations on 40³, %v on 20³", shape.name, m40, m20)
		}
	}
}

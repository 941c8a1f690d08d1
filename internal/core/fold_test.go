package core

import (
	"context"
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

// TestObservationVisibility pins the comparison the integer fold makes
// instead of comparing renderings: for every built-in observation and
// random outcomes, sees.same(a, b) ⇔ Render(a) == Render(b). A user-built
// observation has no visibility, and neither has CoarseNotices of one.
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
	for _, obs := range builtinObservations {
		if !obs.sees.ok {
			t.Fatalf("%s has no visibility", obs.ObsName)
		}
		for range 5000 {
			a, b := outcome(), outcome()
			if same, equal := obs.sees.same(&a, &b), obs.Render(a) == obs.Render(b); same != equal {
				t.Fatalf("%s: %+v and %+v: same %v, renderings %q and %q", obs.ObsName, a, b, same, obs.Render(a), obs.Render(b))
			}
		}
	}
	user := Observation{ObsName: "value", Render: ObserveValue.Render}
	if user.sees.ok || CoarseNotices(user).sees.ok {
		t.Fatal("a user-built observation must keep the string fold")
	}
}

// TestFoldKeysRoute pins which questions the parallel engines fold on
// integer keys, and when their tables are dense.
func TestFoldKeysRoute(t *testing.T) {
	asc := Domain{{0, 1, 2, 3}, {-4, 0, 9}, {5, 6}}
	user := Observation{ObsName: "value", Render: ObserveValue.Render}
	content := NewContent("allow(1)", 3, NewAllow(3, 1).View)
	one := sweep.Config{Workers: 1}
	shard := sweep.Config{Workers: 1, Offset: 4, Count: 8}
	for _, c := range []struct {
		name  string
		pol   Policy
		dom   Domain
		obs   Observation
		cfg   sweep.Config
		keyed bool
		dense bool
	}{
		{"allow", NewAllow(3, 1), asc, ObserveValue, one, true, true},
		{"integrity", NewIntegrity(3, 2, 3), asc, CoarseNotices(ObserveValueAndTime), one, true, true},
		{"nullary", NewAllow(0), Domain{}, ObserveValue, one, true, true},
		{"all-allowed", NewAllow(3, 1, 2, 3), asc, ObserveValue, one, true, true},
		{"all-allowed shard", NewAllow(3, 1, 2, 3), asc, ObserveValue, shard, true, false},
		{"all-allowed 4 workers", NewAllow(3, 1, 2, 3), asc, ObserveValue, sweep.Config{Workers: 4}, true, false},
		{"allow(1) shard", NewAllow(3, 1), asc, ObserveValue, shard, true, true},
		{"content", content, asc, ObserveValue, one, false, false},
		{"user observation", NewAllow(3, 1), asc, user, one, false, false},
		{"descending", NewAllow(3, 1), Domain{{3, 2}, {0}, {1}}, ObserveValue, one, false, false},
		{"repeated hidden", NewAllow(3, 1), Domain{{0, 1}, {2, 2}, {1}}, ObserveValue, one, false, false},
		{"empty axis", NewAllow(3, 1), Domain{{0, 1}, {}, {1}}, ObserveValue, one, false, false},
	} {
		fk := newFoldKeys(c.pol, c.dom, c.obs, CheckConfig{Config: c.cfg})
		if (fk != nil) != c.keyed {
			t.Errorf("%s: integer fold %v, want %v", c.name, fk != nil, c.keyed)
		}
		if fk != nil && fk.dense != c.dense {
			t.Errorf("%s: dense tables %v, want %v", c.name, fk.dense, c.dense)
		}
	}
}

// TestFoldKeysDecode pins the bijections the integer fold relies on: the
// flat index of every tuple decodes back to it and follows the sweep's
// enumeration order, and two tuples share a view key exactly when they
// share a view.
func TestFoldKeysDecode(t *testing.T) {
	dom := Domain{{-3, 0, 4}, {1, 2}, {-1, 0, 7, 8}}
	for _, pol := range []Policy{NewAllow(3), NewAllow(3, 2), NewIntegrity(3, 1, 3), NewAllow(3, 1, 2, 3)} {
		fk := newFoldKeys(pol, dom, ObserveValue, CheckConfig{})
		byKey := map[int]string{}
		byView := map[string]int{}
		next := 0
		if err := dom.Enumerate(func(input []int64) error {
			at0, key0 := fk.prefix(input)
			last := input[len(input)-1:]
			at, key := fk.lane(at0, key0, last, 0)
			if at != next {
				t.Fatalf("%s: %v has flat index %d, want %d", pol.Name(), input, at, next)
			}
			next++
			if got := fk.input(at); !slices.Equal(got, input) {
				t.Fatalf("%s: flat index %d decodes to %v, want %v", pol.Name(), at, got, input)
			}
			if key < 0 || key >= fk.classes {
				t.Fatalf("%s: %v has view key %d outside [0, %d)", pol.Name(), input, key, fk.classes)
			}
			view := pol.View(input)
			if v, ok := byKey[key]; ok && v != view {
				t.Fatalf("%s: key %d holds views %q and %q", pol.Name(), key, v, view)
			}
			if k, ok := byView[view]; ok && k != key {
				t.Fatalf("%s: view %q has keys %d and %d", pol.Name(), view, k, key)
			}
			byKey[key], byView[view] = view, key
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(byKey) != fk.classes {
			t.Errorf("%s: %d view keys, want %d", pol.Name(), len(byKey), fk.classes)
		}
	}
}

// TestFoldAllocsIndependentOfDomain pins that the integer fold allocates
// per question, not per tuple: on a compiled program under allow(1), both
// engines allocate no more on a 40³ domain than on a 20³ one, plus a small
// constant. The chunk size is fixed so the sweep's per-chunk buffers stay
// inside that constant, and the snapshot-stack tier is off: its row cache
// allocates once per distinct row by design, which is the runner's cost,
// not the fold's.
func TestFoldAllocsIndependentOfDomain(t *testing.T) {
	m := fold3(t)
	pol := NewAllow(3, 1)
	cc := CheckConfig{Config: sweep.Config{Workers: 1, Chunk: 1 << 14}, Batch: 16, NoStack: true}
	ctx := context.Background()
	allocs := func(n int64) (sound, maximal float64) {
		dom := Grid(3, Range(0, n-1)...)
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
	const slack = 64
	s20, m20 := allocs(20)
	s40, m40 := allocs(40)
	if s40 > s20+slack {
		t.Errorf("soundness: %v allocations on 40³, %v on 20³", s40, s20)
	}
	if m40 > m20+slack {
		t.Errorf("maximality: %v allocations on 40³, %v on 20³", m40, m20)
	}
}

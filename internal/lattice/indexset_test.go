package lattice

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewIndexSet(t *testing.T) {
	s := NewIndexSet(1, 3, 5)
	for _, i := range []int{1, 3, 5} {
		if !s.Contains(i) {
			t.Errorf("Contains(%d) = false, want true", i)
		}
	}
	for _, i := range []int{2, 4, 6, 63} {
		if s.Contains(i) {
			t.Errorf("Contains(%d) = true, want false", i)
		}
	}
	if got := s.Len(); got != 3 {
		t.Errorf("Len() = %d, want 3", got)
	}
}

func TestEmptySet(t *testing.T) {
	if !EmptySet.IsEmpty() {
		t.Error("EmptySet.IsEmpty() = false")
	}
	if EmptySet.Len() != 0 {
		t.Errorf("EmptySet.Len() = %d", EmptySet.Len())
	}
	if got := EmptySet.String(); got != "{}" {
		t.Errorf("EmptySet.String() = %q, want {}", got)
	}
	if !EmptySet.SubsetOf(NewIndexSet(1)) {
		t.Error("∅ ⊆ {1} should hold")
	}
}

func TestAllInputs(t *testing.T) {
	tests := []struct {
		k    int
		want []int
	}{
		{0, nil},
		{1, []int{1}},
		{3, []int{1, 2, 3}},
	}
	for _, tc := range tests {
		got := AllInputs(tc.k).Indices()
		if len(got) != len(tc.want) {
			t.Errorf("AllInputs(%d) = %v, want %v", tc.k, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("AllInputs(%d) = %v, want %v", tc.k, got, tc.want)
				break
			}
		}
	}
}

func TestAllInputsPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("AllInputs(64) did not panic")
		}
	}()
	AllInputs(64)
}

func TestAddRemove(t *testing.T) {
	s := EmptySet.Add(7)
	if !s.Contains(7) {
		t.Error("Add(7) lost the element")
	}
	s = s.Remove(7)
	if s.Contains(7) {
		t.Error("Remove(7) did not remove the element")
	}
	// Removing an absent element is a no-op.
	if got := NewIndexSet(1).Remove(2); got != NewIndexSet(1) {
		t.Errorf("Remove absent = %v", got)
	}
}

func TestAddPanicsOutOfRange(t *testing.T) {
	for _, i := range []int{0, -1, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%d) did not panic", i)
				}
			}()
			EmptySet.Add(i)
		}()
	}
}

func TestContainsOutOfRangeIsFalse(t *testing.T) {
	s := NewIndexSet(1)
	if s.Contains(0) || s.Contains(-5) || s.Contains(64) {
		t.Error("Contains out of range should be false, not panic")
	}
}

func TestSetAlgebra(t *testing.T) {
	a := NewIndexSet(1, 2, 3)
	b := NewIndexSet(3, 4)
	if got := a.Union(b); got != NewIndexSet(1, 2, 3, 4) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got != NewIndexSet(3) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); got != NewIndexSet(1, 2) {
		t.Errorf("Minus = %v", got)
	}
	if !NewIndexSet(1, 2).SubsetOf(a) {
		t.Error("{1,2} ⊆ {1,2,3} should hold")
	}
	if b.SubsetOf(a) {
		t.Error("{3,4} ⊆ {1,2,3} should not hold")
	}
}

func TestMaskRoundTrip(t *testing.T) {
	s := NewIndexSet(1, 5, 63)
	if got := FromMask(s.Mask()); got != s {
		t.Errorf("FromMask(Mask()) = %v, want %v", got, s)
	}
	// Bit 0 is stripped.
	if got := FromMask(1); got != EmptySet {
		t.Errorf("FromMask(1) = %v, want {}", got)
	}
}

func TestStringAndParse(t *testing.T) {
	cases := []IndexSet{EmptySet, NewIndexSet(1), NewIndexSet(2, 7), NewIndexSet(1, 2, 3, 10)}
	for _, s := range cases {
		got, err := ParseIndexSet(s.String())
		if err != nil {
			t.Errorf("ParseIndexSet(%q): %v", s.String(), err)
			continue
		}
		if got != s {
			t.Errorf("round trip %q = %v", s.String(), got)
		}
	}
}

func TestParseIndexSetErrors(t *testing.T) {
	for _, text := range []string{"", "1,2", "{1", "1}", "{a}", "{0}", "{64}", "{1,,2}", "{2 3}", "{1x}", "{1,2x}", "{0x2}", "{1.0}"} {
		if s, err := ParseIndexSet(text); err == nil {
			t.Errorf("ParseIndexSet(%q) = %v, want error", text, s)
		}
	}
	// A malformed index is reported as malformed, not as out of range.
	if _, err := ParseIndexSet("{0x2}"); err == nil || strings.Contains(err.Error(), "out of range") {
		t.Errorf("ParseIndexSet(%q): %v, want a bad-index error", "{0x2}", err)
	}
	// Whitespace tolerated.
	got, err := ParseIndexSet(" { 1 , 2 } ")
	if err != nil || got != NewIndexSet(1, 2) {
		t.Errorf("ParseIndexSet with spaces = %v, %v", got, err)
	}
}

func TestSubsets(t *testing.T) {
	subs := Subsets(3)
	if len(subs) != 8 {
		t.Fatalf("Subsets(3) has %d entries, want 8", len(subs))
	}
	seen := map[IndexSet]bool{}
	for _, s := range subs {
		if seen[s] {
			t.Errorf("duplicate subset %v", s)
		}
		seen[s] = true
		if !s.SubsetOf(AllInputs(3)) {
			t.Errorf("subset %v not within universe", s)
		}
	}
	if !seen[EmptySet] || !seen[AllInputs(3)] {
		t.Error("Subsets must include ∅ and the universe")
	}
}

func TestSubsetsZero(t *testing.T) {
	subs := Subsets(0)
	if len(subs) != 1 || subs[0] != EmptySet {
		t.Errorf("Subsets(0) = %v, want [∅]", subs)
	}
}

// randomSet draws a set over {1..12} for property tests.
func randomSet(r *rand.Rand) IndexSet {
	return FromMask(int64(r.Uint64()) & AllInputs(12).Mask())
}

func TestIndexSetLatticeProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	// Join is commutative, associative, idempotent; subset order agrees.
	prop := func(am, bm, cm uint16) bool {
		a := FromMask(int64(am) << 1)
		b := FromMask(int64(bm) << 1)
		c := FromMask(int64(cm) << 1)
		if a.Union(b) != b.Union(a) {
			return false
		}
		if a.Union(b.Union(c)) != a.Union(b).Union(c) {
			return false
		}
		if a.Union(a) != a {
			return false
		}
		// Absorption with meet.
		if a.Union(a.Intersect(b)) != a {
			return false
		}
		if a.Intersect(a.Union(b)) != a {
			return false
		}
		// a ⊆ a∪b and a∩b ⊆ a.
		if !a.SubsetOf(a.Union(b)) || !a.Intersect(b).SubsetOf(a) {
			return false
		}
		// SubsetOf ⟺ union is absorbing.
		if a.SubsetOf(b) != (a.Union(b) == b) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestIndicesSorted(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		s := randomSet(r)
		idx := s.Indices()
		for i := 1; i < len(idx); i++ {
			if idx[i-1] >= idx[i] {
				t.Fatalf("Indices() not strictly increasing: %v", idx)
			}
		}
		if len(idx) != s.Len() {
			t.Fatalf("len(Indices()) = %d, Len() = %d", len(idx), s.Len())
		}
	}
}

// FuzzParseIndexSet requires ParseIndexSet never to panic and every set it
// accepts to round-trip through String.
func FuzzParseIndexSet(f *testing.F) {
	for _, seed := range []string{"{}", "{1}", "{1,3}", " { 1 , 2 } ", "{2 3}", "{1x}", "{0x2}", "{63}", "{64}", "{-1}", "{+1}", "{1,,2}"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseIndexSet(text)
		if err != nil {
			return
		}
		back, err := ParseIndexSet(s.String())
		if err != nil || back != s {
			t.Fatalf("ParseIndexSet(%q) = %v; its String %q parses to %v, %v", text, s, s.String(), back, err)
		}
	})
}

// Package lattice provides the label lattices used throughout the library.
//
// Two lattices appear in Jones & Lipton's paper. The first, used by the
// surveillance protection mechanism of Section 3, is the powerset lattice of
// input indices {1..k}: the surveillance variable v̄ attached to a program
// variable v holds the set of input indices that may have affected v's
// current value. The second, from Denning's lattice model of secure
// information flow (the paper's reference [2]), is an arbitrary finite
// lattice of security classes; it underlies the high-water-mark mechanism
// and static certification.
package lattice

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
)

// MaxIndex is the largest input index an IndexSet can hold. Input indices
// are 1-based, matching the paper's x1..xk notation.
const MaxIndex = 63

// IndexSet is a subset of the input indices {1..MaxIndex}, represented as a
// bitmask so that set union is a single OR instruction. This is exactly the
// value domain of the paper's surveillance variables, and the bitmask
// representation is what lets the instrumented program of Section 3 remain
// an ordinary flowchart program over integers.
type IndexSet uint64

// EmptySet is the bottom element of the index-set lattice (the paper's ∅,
// written D̸ in the scanned text).
const EmptySet IndexSet = 0

// NewIndexSet builds the set {indices...}. Indices outside [1, MaxIndex]
// cause a panic: they indicate a programming error, since programs have a
// statically known arity.
func NewIndexSet(indices ...int) IndexSet {
	var s IndexSet
	for _, i := range indices {
		s = s.Add(i)
	}
	return s
}

// AllInputs returns the full set {1..k}.
func AllInputs(k int) IndexSet {
	if k < 0 || k > MaxIndex {
		panic(fmt.Sprintf("lattice: arity %d out of range [0,%d]", k, MaxIndex))
	}
	if k == 0 {
		return 0
	}
	return IndexSet((uint64(1)<<uint(k) - 1) << 1)
}

// Add returns s ∪ {i}.
func (s IndexSet) Add(i int) IndexSet {
	if i < 1 || i > MaxIndex {
		panic(fmt.Sprintf("lattice: index %d out of range [1,%d]", i, MaxIndex))
	}
	return s | 1<<uint(i)
}

// Remove returns s \ {i}.
func (s IndexSet) Remove(i int) IndexSet {
	if i < 1 || i > MaxIndex {
		panic(fmt.Sprintf("lattice: index %d out of range [1,%d]", i, MaxIndex))
	}
	return s &^ (1 << uint(i))
}

// Contains reports whether i ∈ s.
func (s IndexSet) Contains(i int) bool {
	if i < 1 || i > MaxIndex {
		return false
	}
	return s&(1<<uint(i)) != 0
}

// Union returns s ∪ t, the lattice join.
func (s IndexSet) Union(t IndexSet) IndexSet { return s | t }

// Intersect returns s ∩ t, the lattice meet.
func (s IndexSet) Intersect(t IndexSet) IndexSet { return s & t }

// Minus returns s \ t.
func (s IndexSet) Minus(t IndexSet) IndexSet { return s &^ t }

// SubsetOf reports whether s ⊆ t. Soundness of the surveillance mechanism
// reduces to checks of the form v̄ ∪ C̄ ⊆ J.
func (s IndexSet) SubsetOf(t IndexSet) bool { return s&^t == 0 }

// IsEmpty reports whether s = ∅.
func (s IndexSet) IsEmpty() bool { return s == 0 }

// Len returns |s|.
func (s IndexSet) Len() int { return bits.OnesCount64(uint64(s)) }

// Indices returns the members of s in increasing order.
func (s IndexSet) Indices() []int {
	out := make([]int, 0, s.Len())
	for i := 1; i <= MaxIndex; i++ {
		if s.Contains(i) {
			out = append(out, i)
		}
	}
	return out
}

// Mask returns the raw bitmask. The surveillance transformation embeds this
// value as an integer constant in the instrumented flowchart.
func (s IndexSet) Mask() int64 { return int64(s) }

// FromMask reconstructs an IndexSet from a raw bitmask, discarding bit 0
// (index 0 does not exist; inputs are 1-based).
func FromMask(m int64) IndexSet { return IndexSet(uint64(m)) &^ 1 }

// String renders the set in the paper's notation, e.g. "{1,3}".
func (s IndexSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for n, i := range s.Indices() {
		if n > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", i)
	}
	b.WriteByte('}')
	return b.String()
}

// ParseIndexSet parses the String form: "{}", "{1}", "{1,3}". Whitespace
// around elements is tolerated.
func ParseIndexSet(text string) (IndexSet, error) {
	t := strings.TrimSpace(text)
	if len(t) < 2 || t[0] != '{' || t[len(t)-1] != '}' {
		return 0, fmt.Errorf("lattice: %q is not an index set (want {i,j,...})", text)
	}
	inner := strings.TrimSpace(t[1 : len(t)-1])
	if inner == "" {
		return EmptySet, nil
	}
	var s IndexSet
	for _, part := range strings.Split(inner, ",") {
		i, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return 0, fmt.Errorf("lattice: bad index %q in %q", part, text)
		}
		if i < 1 || i > MaxIndex {
			return 0, fmt.Errorf("lattice: index %d out of range [1,%d]", i, MaxIndex)
		}
		s = s.Add(i)
	}
	return s, nil
}

// Subsets enumerates every subset of the universe {1..k} in mask order.
// It is used by exhaustive soundness sweeps over all allow(J) policies.
func Subsets(k int) []IndexSet {
	universe := AllInputs(k)
	// Enumerate submasks of universe including ∅.
	out := make([]IndexSet, 0, 1<<uint(k))
	out = append(out, EmptySet)
	for sub := universe; sub != 0; sub = (sub - 1) & universe {
		out = append(out, sub)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

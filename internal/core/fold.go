package core

import (
	"math"
	"slices"

	"spm/internal/lattice"
	"spm/internal/sweep"
)

// foldKeys is the integer form of one soundness or maximality question,
// which lets the parallel engines fold on machine words and render
// strings only where a verdict leaves core. A tuple is its flat index:
// its position in the mixed-radix index space the sweep enumerates
// (DESIGN.md), so a table entry holds an int instead of a copied input.
// A policy class is its view key: the mixed-radix number of the tuple's
// allowed coordinates, the same bijection restricted to the axes the
// policy shows. Outcomes are compared field by field as the observation
// sees them (Observation.sees), not by their renderings.
//
// Two conditions make the integers exact stand-ins for the strings. The
// view key must separate projected values, not positions, and comparing
// flat indices must order witnesses as LessInput does. Both hold when
// every axis is strictly ascending, which is the domain newFoldKeys
// accepts; any other domain, a policy other than Allow or Integrity, or
// a user-built observation stays on the string path.
type foldKeys struct {
	dom  Domain
	axes []axisIndex
	// flatW[i] and keyW[i] are axis i's weights in the flat index and
	// the view key; keyW[i] is 0 on an axis the policy hides.
	flatW, keyW []int
	// classes is the number of view keys, the projected product: keys
	// range over [0, classes).
	classes int
	// dense selects slices indexed by view key for the class tables;
	// otherwise they are maps (see keyTable).
	dense bool
	sees  visibility
}

// axisIndex maps a value of a strictly ascending axis to its position:
// an offset from lo when the axis is contiguous (vals nil), a binary
// search of vals otherwise.
type axisIndex struct {
	lo   int64
	vals []int64
}

func (a axisIndex) index(v int64) int {
	if a.vals == nil {
		return int(v - a.lo)
	}
	i, _ := slices.BinarySearch(a.vals, v)
	return i
}

// newFoldKeys returns the integer form of the question, or nil when it
// must stay on the string path. Every sweep worker keeps its own class
// table, so the tables are dense only while their slots, over all
// workers, number at most twice the range's tuple count; past that — a
// shard, or many workers, under a policy that shows most axes — most
// slots would stay empty and the tables are maps.
func newFoldKeys(pol Policy, dom Domain, obs Observation, cc CheckConfig) *foldKeys {
	var shown lattice.IndexSet
	switch p := pol.(type) {
	case *Allow:
		shown = p.Allowed
	case *Integrity:
		shown = p.Trusted
	default:
		return nil
	}
	size := sweep.Size(dom)
	lo, hi, err := cc.Bounds(size)
	if !obs.sees.ok || size == 0 || size == math.MaxInt || err != nil {
		return nil
	}
	k := len(dom)
	fk := &foldKeys{dom: dom, axes: make([]axisIndex, k), flatW: make([]int, k), keyW: make([]int, k), sees: obs.sees}
	flat, key := 1, 1
	for i := k - 1; i >= 0; i-- {
		vs := dom[i]
		for j := 1; j < len(vs); j++ {
			if vs[j] <= vs[j-1] {
				return nil
			}
		}
		// Wrapping subtraction is exact here: the true difference of a
		// strictly ascending axis is at least len-1, so it wraps to
		// len-1 only if it is len-1.
		fk.axes[i] = axisIndex{lo: vs[0]}
		if vs[len(vs)-1]-vs[0] != int64(len(vs)-1) {
			fk.axes[i].vals = vs
		}
		fk.flatW[i] = flat
		flat *= len(vs)
		if shown.Contains(i + 1) {
			fk.keyW[i] = key
			key *= len(vs)
		}
	}
	fk.classes = key
	perWorker := 0 // the range's tuple count over the workers, rounded up
	if n := hi - lo; n > 0 {
		perWorker = (n-1)/cc.ResolvedWorkers(size) + 1
	}
	fk.dense = key-perWorker <= perWorker
	return fk
}

// prefix returns the flat index and view key of the stride whose first
// tuple is input, without its innermost coordinate; lane adds it.
func (fk *foldKeys) prefix(input []int64) (at, key int) {
	for i := 0; i < len(input)-1; i++ {
		j := fk.axes[i].index(input[i])
		at += j * fk.flatW[i]
		key += j * fk.keyW[i]
	}
	return at, key
}

// lane returns the flat index and view key of the stride's lane whose
// innermost coordinate is last[lane], given the stride's prefix (at, key).
// The nullary domain's single tuple, with nil last, is (0, 0).
func (fk *foldKeys) lane(at, key int, last []int64, lane int) (int, int) {
	if last == nil {
		return at, key
	}
	k := len(fk.axes)
	j := fk.axes[k-1].index(last[lane])
	return at + j, key + j*fk.keyW[k-1]
}

// input decodes flat index at back to its tuple, as a fresh slice.
func (fk *foldKeys) input(at int) []int64 {
	in := make([]int64, len(fk.dom))
	for i := len(in) - 1; i >= 0; i-- {
		n := len(fk.dom[i])
		in[i] = fk.dom[i][at%n]
		at /= n
	}
	return in
}

// noWitness is the integer witness slot's "none". It orders after every
// flat index, as nil orders after every input in LessInput.
const noWitness = math.MaxInt

// keyTable maps view keys to per-class entries, one table per sweep
// worker: a slice indexed by key when the keys are dense against the
// range, otherwise a map from key to a slot of an append-only slice. An
// entry starts as E's zero value; the engines mark the slots they fill.
type keyTable[E any] struct {
	dense []E
	slot  map[int]int
	keys  []int
	slots []E
}

func newKeyTable[E any](fk *foldKeys) keyTable[E] {
	if fk.dense {
		return keyTable[E]{dense: make([]E, fk.classes)}
	}
	return keyTable[E]{slot: make(map[int]int)}
}

// at returns key's entry, creating a zero one on first touch. The pointer
// is valid until the next call.
func (t *keyTable[E]) at(key int) *E {
	if t.slot == nil {
		return &t.dense[key]
	}
	i, ok := t.slot[key]
	if !ok {
		i = len(t.slots)
		t.slot[key] = i
		t.keys = append(t.keys, key)
		t.slots = append(t.slots, *new(E))
	}
	return &t.slots[i]
}

// each calls f on every entry: in key order when dense, including the
// untouched zero entries, and in first-touch order otherwise.
func (t *keyTable[E]) each(f func(key int, e *E)) {
	if t.slot == nil {
		for key := range t.dense {
			f(key, &t.dense[key])
		}
		return
	}
	for i, key := range t.keys {
		f(key, &t.slots[i])
	}
}

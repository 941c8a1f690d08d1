package core

import (
	"math"
	"slices"

	"spm/internal/lattice"
	"spm/internal/sweep"
)

// foldKeys is the integer form of a soundness or maximality question, the
// one fold both parallel engines run: they fold on machine words and
// render strings only where a verdict leaves core. A tuple is its value
// index: the mixed-radix number of its coordinates' ranks among their
// axis's sorted, distinct values. It decodes back to the tuple's values,
// orders tuples as LessInput does, and gives equal tuples one index, so a
// table entry holds an int instead of a copied input, and the least index
// is the least input whatever order the axes list their values in. On a
// strictly ascending domain it is the tuple's position in the sweep.
//
// A policy class is a class key. For Allow and Integrity it is the view
// key: the mixed-radix number of the ranks of the allowed coordinates.
// Any other policy has its classes interned per worker (classIDs).
// Outcomes are compared as the observation sees them: field by field for
// a built-in observation (Observation.sees), by rendering otherwise.
type foldKeys struct {
	axes []axisIndex
	// atW[i] and keyW[i] are axis i's weights in the value index and the
	// view key; keyW[i] is 0 on an axis the policy hides.
	atW, keyW []int
	// intern is the policy when it has no view key: every keyW is then 0
	// and a class key is an id interned from intern.View.
	intern Policy
	// classes is the number of view keys, the projected product: keys
	// range over [0, classes).
	classes int
	// dense selects slices indexed by class key for the class tables;
	// otherwise they are maps (see keyTable).
	dense bool
	sees  visibility
	// render compares outcomes when sees is unset.
	render func(Outcome) string
}

// axisIndex ranks the values of one axis among its sorted, distinct
// values: an offset from lo when they are contiguous (vals nil), a binary
// search of vals otherwise. n is the number of distinct values.
type axisIndex struct {
	lo   int64
	n    int
	vals []int64
}

func newAxisIndex(vs []int64) axisIndex {
	vs = slices.Clone(vs)
	slices.Sort(vs)
	vs = slices.Compact(vs)
	// Wrapping subtraction is exact here: the true difference of sorted
	// distinct values is at least len-1, so it wraps to len-1 only if it
	// is len-1.
	if len(vs) > 0 && vs[len(vs)-1]-vs[0] == int64(len(vs)-1) {
		return axisIndex{lo: vs[0], n: len(vs)}
	}
	return axisIndex{n: len(vs), vals: vs}
}

func (a axisIndex) index(v int64) int {
	if a.vals == nil {
		return int(v - a.lo)
	}
	i, _ := slices.BinarySearch(a.vals, v)
	return i
}

func (a axisIndex) value(i int) int64 {
	if a.vals == nil {
		return a.lo + int64(i)
	}
	return a.vals[i]
}

// newFoldKeys returns the integer form of the question, or the sweep's
// error for an oversized domain or a bad shard. Every sweep worker keeps
// its own class table, so the tables are dense only while their slots,
// over all workers, number at most twice the range's tuple count; past
// that — a shard, or many workers, under a policy that shows most axes —
// most slots would stay empty and the tables are maps. Interned classes
// always use maps.
func newFoldKeys(pol Policy, dom Domain, obs Observation, cc CheckConfig) (*foldKeys, error) {
	size := sweep.Size(dom)
	if size == math.MaxInt {
		return nil, sweep.ErrTooLarge
	}
	lo, hi, err := cc.Bounds(size)
	if err != nil {
		return nil, err
	}
	k := len(dom)
	fk := &foldKeys{axes: make([]axisIndex, k), atW: make([]int, k), keyW: make([]int, k), sees: obs.sees}
	if !obs.sees.ok {
		fk.render = obs.Render
	}
	var shown lattice.IndexSet
	switch p := pol.(type) {
	case *Allow:
		shown = p.Allowed
	case *Integrity:
		shown = p.Trusted
	default:
		fk.intern = pol
	}
	at, key := 1, 1
	for i := k - 1; i >= 0; i-- {
		fk.axes[i] = newAxisIndex(dom[i])
		fk.atW[i] = at
		at *= fk.axes[i].n
		if shown.Contains(i + 1) {
			fk.keyW[i] = key
			key *= fk.axes[i].n
		}
	}
	fk.classes = key
	perWorker := 0 // the range's tuple count over the workers, rounded up
	if n := hi - lo; n > 0 {
		perWorker = (n-1)/cc.ResolvedWorkers(size) + 1
	}
	fk.dense = fk.intern == nil && key-perWorker <= perWorker
	return fk, nil
}

// prefix returns the value index and view key of the stride whose first
// tuple is input, without its innermost coordinate; lane adds it.
func (fk *foldKeys) prefix(input []int64) (at, key int) {
	for i := 0; i < len(input)-1; i++ {
		j := fk.axes[i].index(input[i])
		at += j * fk.atW[i]
		key += j * fk.keyW[i]
	}
	return at, key
}

// lane returns the value index and view key of the stride's lane whose
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

// interned returns the class key of the stride's lane whose innermost
// coordinate is last[lane] when the classes are interned: the id of its
// view in ids, the worker's own. input is the stride's first tuple; its
// innermost coordinate is overwritten.
func (fk *foldKeys) interned(ids *classIDs, input, last []int64, lane int) int {
	if k := len(input); k > 0 {
		input[k-1] = last[lane]
	}
	return ids.of(fk.intern.View(input))
}

// input decodes value index at back to its tuple, as a fresh slice.
func (fk *foldKeys) input(at int) []int64 {
	in := make([]int64, len(fk.axes))
	for i := len(in) - 1; i >= 0; i-- {
		n := fk.axes[i].n
		in[i] = fk.axes[i].value(at % n)
		at /= n
	}
	return in
}

// same reports whether the observation shows a and b alike.
func (fk *foldKeys) same(a, b *Outcome) bool {
	if fk.render == nil {
		return fk.sees.same(a, b)
	}
	return fk.render(*a) == fk.render(*b)
}

// classIDs interns one sweep worker's policy views as class keys: a
// view's key is its position in views. Each worker owns its own, so the
// fold takes no lock; merging translates a worker's keys into the first
// worker's through the view (rekey). The zero value is empty.
type classIDs struct {
	ids   map[string]int
	views []string
}

func (c *classIDs) of(view string) int {
	id, ok := c.ids[view]
	if !ok {
		if c.ids == nil {
			c.ids = make(map[string]int)
		}
		id = len(c.views)
		c.ids[view] = id
		c.views = append(c.views, view)
	}
	return id
}

// rekey translates class key key of the worker whose interner is from
// into the key of the same class in into's worker.
func (fk *foldKeys) rekey(into, from *classIDs, key int) int {
	if fk.intern == nil {
		return key
	}
	return into.of(from.views[key])
}

// noWitness is the integer witness slot's "none". It orders after every
// value index, as nil orders after every input in LessInput.
const noWitness = math.MaxInt

// keyTable maps class keys to per-class entries, one table per sweep
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

package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Domain is a finite test domain: one candidate value list per input
// position. Soundness, mechanism-property, and completeness checks
// enumerate its cartesian product.
type Domain [][]int64

// Grid builds a domain where every one of arity positions ranges over the
// same values.
func Grid(arity int, values ...int64) Domain {
	d := make(Domain, arity)
	for i := range d {
		d[i] = values
	}
	return d
}

// Range builds the value list lo..hi inclusive, a convenience for Grid.
func Range(lo, hi int64) []int64 {
	if hi < lo {
		return nil
	}
	out := make([]int64, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

// Size returns the number of points in the domain.
func (d Domain) Size() int {
	n := 1
	for _, vs := range d {
		n *= len(vs)
	}
	return n
}

// Enumerate calls f on every point of the cartesian product, reusing a
// single buffer; f must not retain the slice. Enumeration stops at the
// first error.
func (d Domain) Enumerate(f func(input []int64) error) error {
	if len(d) == 0 {
		return f(nil)
	}
	for _, vs := range d {
		if len(vs) == 0 {
			return nil // empty product
		}
	}
	idx := make([]int, len(d))
	buf := make([]int64, len(d))
	for {
		for i := range d {
			buf[i] = d[i][idx[i]]
		}
		if err := f(buf); err != nil {
			return err
		}
		j := len(d) - 1
		for j >= 0 {
			idx[j]++
			if idx[j] < len(d[j]) {
				break
			}
			idx[j] = 0
			j--
		}
		if j < 0 {
			return nil
		}
	}
}

// SoundnessReport is the result of CheckSoundness.
type SoundnessReport struct {
	Mechanism   string
	Policy      string
	Observation string
	Sound       bool
	Checked     int
	// On failure, two inputs with the same policy view but different
	// observable outcomes — a counterexample to M = M′ ∘ I.
	WitnessA, WitnessB []int64
	ObsA, ObsB         string
	// Views is the per-class summary table, populated only when
	// CheckConfig.CollectViews asked for it: one entry per policy view
	// seen, carrying its least input and least conflict (ViewObs). A verdict
	// over a shard of the index space is exact only together with this
	// table — two shards each internally sound can still conflict on a
	// class that spans them, which is what check.Merge detects.
	Views map[string]ViewObs
}

// ViewObs is one policy class's soundness summary over part of the index
// space: the unit of the cross-shard soundness merge and the rendered form
// of one entry of the per-worker tables the parallel checker merges
// in-process. Witness is the class's lexicographically least input there
// (see LessInput) and Obs its observation; Conflict is the least input
// there observed differently from Witness, nil while the class is
// constant there (a pointer, so the many constant classes of a sound
// shard carry one word for it).
type ViewObs struct {
	Obs      string        `json:"obs"`
	Witness  []int64       `json:"witness"`
	Conflict *ViewConflict `json:"conflict,omitempty"`
}

// ViewConflict is a class's least input observed differently from its
// least input, and that observation.
type ViewConflict struct {
	Input []int64 `json:"input"`
	Obs   string  `json:"obs"`
}

// MergeViewObs folds two summaries of the same class from parts of the
// index space: the lesser Witness stays, and the other part offers its
// Witness as a conflict when the two observations differ, its Conflict
// otherwise; the lesser conflict stays. The result does not depend on
// which part comes first, and parts that overlap fold as if the overlap
// were counted once. It is the cross-node fold of check.Merge and the
// segment fold of check.RunCheckpointed.
func MergeViewObs(a, b ViewObs) ViewObs {
	if LessInput(b.Witness, a.Witness) {
		a, b = b, a
	}
	offer := b.Conflict
	if b.Obs != a.Obs {
		offer = &ViewConflict{Input: b.Witness, Obs: b.Obs}
	}
	if offer != nil && (a.Conflict == nil || LessInput(offer.Input, a.Conflict.Input)) {
		a.Conflict = offer
	}
	return a
}

// LeastConflict is the one soundness verdict rule: of the classes in
// views, it returns the one whose Conflict is least, and false when no
// class has a conflict. No input belongs to two classes, so the result
// depends only on the table's contents. Its Witness and Conflict are the
// verdict's witness pair: on a table covering the whole domain, the one
// CheckSoundnessContext reports.
func LeastConflict(views map[string]ViewObs) (ViewObs, bool) {
	var least ViewObs
	for _, v := range views {
		if v.Conflict != nil && (least.Conflict == nil || LessInput(v.Conflict.Input, least.Conflict.Input)) {
			least = v
		}
	}
	return least, least.Conflict != nil
}

// String summarises the report.
func (r SoundnessReport) String() string {
	if r.Sound {
		return fmt.Sprintf("%s is SOUND for %s under %s (%d inputs checked)",
			r.Mechanism, r.Policy, r.Observation, r.Checked)
	}
	return fmt.Sprintf("%s is UNSOUND for %s under %s: inputs %v and %v share a policy view but observe as %q vs %q",
		r.Mechanism, r.Policy, r.Observation, r.WitnessA, r.WitnessB, r.ObsA, r.ObsB)
}

// CheckSoundness decides, by exhaustive enumeration of dom, whether m is
// sound for pol under obs: whether the observable outcome factors through
// the policy view. This is the paper's soundness definition restricted to
// a finite domain (over all of Z^k the question is undecidable — Ruzzo's
// observation after Theorem 4).
func CheckSoundness(m Mechanism, pol Policy, dom Domain, obs Observation) (SoundnessReport, error) {
	rep := SoundnessReport{Mechanism: m.Name(), Policy: pol.Name(), Observation: obs.ObsName, Sound: true}
	if m.Arity() != pol.Arity() || len(dom) != m.Arity() {
		return rep, fmt.Errorf("core: arity mismatch: mechanism %d, policy %d, domain %d",
			m.Arity(), pol.Arity(), len(dom))
	}
	type seenEntry struct {
		obs   string
		input []int64
	}
	seen := make(map[string]seenEntry)
	err := dom.Enumerate(func(input []int64) error {
		o, err := m.Run(input)
		if err != nil {
			return err
		}
		rep.Checked++
		view := pol.View(input)
		rendered := obs.Render(o)
		if prev, ok := seen[view]; ok {
			if prev.obs != rendered && rep.Sound {
				rep.Sound = false
				rep.WitnessA = prev.input
				rep.WitnessB = append([]int64(nil), input...)
				rep.ObsA = prev.obs
				rep.ObsB = rendered
			}
			return nil
		}
		seen[view] = seenEntry{obs: rendered, input: append([]int64(nil), input...)}
		return nil
	})
	if err != nil {
		return rep, err
	}
	return rep, nil
}

// VerifyMechanism checks the defining property of a protection mechanism
// for q over dom: for every input, m(d) = q(d) or m(d) is a violation
// notice. It returns the first offending input, if any.
func VerifyMechanism(m, q Mechanism, dom Domain) (ok bool, witness []int64, err error) {
	if m.Arity() != q.Arity() || len(dom) != q.Arity() {
		return false, nil, fmt.Errorf("core: arity mismatch: mechanism %d, program %d, domain %d",
			m.Arity(), q.Arity(), len(dom))
	}
	ok = true
	err = dom.Enumerate(func(input []int64) error {
		mo, err := m.Run(input)
		if err != nil {
			return err
		}
		if mo.Violation {
			return nil
		}
		qo, err := q.Run(input)
		if err != nil {
			return err
		}
		if qo.Violation {
			return fmt.Errorf("core: %q is not a bare program: it issued a violation notice on %v", q.Name(), input)
		}
		if mo.Value != qo.Value && ok {
			ok = false
			witness = append([]int64(nil), input...)
		}
		return nil
	})
	return ok, witness, err
}

// Relation is the outcome of a completeness comparison.
type Relation int

// Completeness relations between two mechanisms for the same program.
const (
	Incomparable Relation = iota // neither dominates
	Equal                        // pass on exactly the same inputs
	MoreComplete                 // first strictly dominates (M1 > M2)
	LessComplete                 // second strictly dominates (M1 < M2)
)

// String names the relation.
func (r Relation) String() string {
	switch r {
	case Incomparable:
		return "incomparable"
	case Equal:
		return "equal"
	case MoreComplete:
		return "more complete"
	case LessComplete:
		return "less complete"
	default:
		return fmt.Sprintf("Relation(%d)", int(r))
	}
}

// CompletenessReport is the result of Compare.
type CompletenessReport struct {
	M1, M2   string
	Relation Relation
	// PassM1/PassM2 count inputs on which each mechanism returned real
	// output (no violation notice); utility in the paper's sense.
	PassM1, PassM2 int
	Checked        int
	// OnlyM1 is an input where M1 passed but M2 did not, and vice versa.
	OnlyM1, OnlyM2 []int64
}

// String summarises the comparison.
func (r CompletenessReport) String() string {
	return fmt.Sprintf("%s %s %s (pass %d vs %d of %d)",
		r.M1, relationSymbol(r.Relation), r.M2, r.PassM1, r.PassM2, r.Checked)
}

func relationSymbol(r Relation) string {
	switch r {
	case Equal:
		return "="
	case MoreComplete:
		return ">"
	case LessComplete:
		return "<"
	default:
		return "<>"
	}
}

// Compare computes the completeness relation between m1 and m2 over dom,
// per the paper's definition: M1 ≥ M2 iff whenever M2 passes (returns real
// output) so does M1. Violation notices are not distinguished from one
// another.
func Compare(m1, m2 Mechanism, dom Domain) (CompletenessReport, error) {
	rep := CompletenessReport{M1: m1.Name(), M2: m2.Name()}
	if m1.Arity() != m2.Arity() || len(dom) != m1.Arity() {
		return rep, fmt.Errorf("core: arity mismatch: %d vs %d vs domain %d", m1.Arity(), m2.Arity(), len(dom))
	}
	ge, le := true, true
	err := dom.Enumerate(func(input []int64) error {
		o1, err := m1.Run(input)
		if err != nil {
			return err
		}
		o2, err := m2.Run(input)
		if err != nil {
			return err
		}
		rep.Checked++
		p1, p2 := !o1.Violation, !o2.Violation
		if p1 {
			rep.PassM1++
		}
		if p2 {
			rep.PassM2++
		}
		if p1 && !p2 && rep.OnlyM1 == nil {
			rep.OnlyM1 = append([]int64(nil), input...)
		}
		if p2 && !p1 && rep.OnlyM2 == nil {
			rep.OnlyM2 = append([]int64(nil), input...)
		}
		if p2 && !p1 {
			ge = false
		}
		if p1 && !p2 {
			le = false
		}
		return nil
	})
	if err != nil {
		return rep, err
	}
	switch {
	case ge && le:
		rep.Relation = Equal
	case ge && rep.OnlyM1 != nil:
		rep.Relation = MoreComplete
	case le && rep.OnlyM2 != nil:
		rep.Relation = LessComplete
	case ge:
		rep.Relation = Equal // dominates but never strictly: identical pass sets
	default:
		rep.Relation = Incomparable
	}
	return rep, nil
}

// LeakReport quantifies how much disallowed information a mechanism's
// observable output carries, in the spirit of Example 5 ("the amount of
// information obtained by the user is small").
type LeakReport struct {
	Mechanism   string
	Policy      string
	Observation string
	// Classes is the number of policy equivalence classes in the domain.
	Classes int
	// MaxOutcomes is the largest number of distinct observations within a
	// single class; 1 means sound.
	MaxOutcomes int
	// Bits is log2(MaxOutcomes): the worst-case information (in bits)
	// about disallowed inputs revealed by one query.
	Bits float64
	// WorstView identifies the class achieving MaxOutcomes.
	WorstView string
}

// String summarises the leak report.
func (r LeakReport) String() string {
	return fmt.Sprintf("%s under %s/%s: %d classes, worst class has %d outcomes = %.3f bits/query",
		r.Mechanism, r.Policy, r.Observation, r.Classes, r.MaxOutcomes, r.Bits)
}

// MeasureLeak computes the leak report for m against pol over dom.
func MeasureLeak(m Mechanism, pol Policy, dom Domain, obs Observation) (LeakReport, error) {
	rep := LeakReport{Mechanism: m.Name(), Policy: pol.Name(), Observation: obs.ObsName}
	if m.Arity() != pol.Arity() || len(dom) != m.Arity() {
		return rep, fmt.Errorf("core: arity mismatch")
	}
	classes := make(map[string]map[string]bool)
	err := dom.Enumerate(func(input []int64) error {
		o, err := m.Run(input)
		if err != nil {
			return err
		}
		view := pol.View(input)
		set := classes[view]
		if set == nil {
			set = make(map[string]bool)
			classes[view] = set
		}
		set[obs.Render(o)] = true
		return nil
	})
	if err != nil {
		return rep, err
	}
	rep.Classes = len(classes)
	views := make([]string, 0, len(classes))
	for v := range classes {
		views = append(views, v)
	}
	sort.Strings(views) // deterministic worst-view selection
	for _, v := range views {
		if n := len(classes[v]); n > rep.MaxOutcomes {
			rep.MaxOutcomes = n
			rep.WorstView = v
		}
	}
	if rep.MaxOutcomes > 0 {
		rep.Bits = math.Log2(float64(rep.MaxOutcomes))
	}
	return rep, nil
}

// FormatInputs renders an input vector for reports.
func FormatInputs(input []int64) string {
	parts := make([]string, len(input))
	for i, v := range input {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

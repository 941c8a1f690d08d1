package core

import (
	"context"
	"slices"

	"spm/internal/sweep"
)

// ClassSummary is one policy class's maximality evidence over a range of
// the index space. The Theorem 2 maximal mechanism passes exactly on the
// classes where Q's observation is constant — a whole-domain property no
// shard can decide alone — so the maximality engine records, per class,
// what Q looked like and where m passed, altered, or withheld, and
// Deviation renders the class's verdict once the table covers the domain.
//
// The witness fields capture each way m can deviate, with the
// lexicographically least input (see LessInput) exhibiting it:
//
//   - PassWitness: m returned real output. Fatal on a globally varying
//     class (ReasonLeaks).
//   - AlterWitness: m returned real output that disagreed with Q at the
//     same input (different rendering, or Q violated there). Fatal on a
//     globally constant class (ReasonAlters).
//   - WithholdWitness: m issued Λ where Q passed. Fatal on a globally
//     constant non-violating class (ReasonWithholds).
type ClassSummary struct {
	// QConstant reports whether Q's observation stayed constant within
	// the range's slice of the class; QObs is that observation rendered
	// and QViolates whether it is a violation notice. A varying class
	// carries neither, so the table does not depend on which of its
	// inputs a sweep met first. Merging requires observations that render
	// violations distinguishably, which every Observation in this library
	// does.
	QObs      string `json:"q_obs"`
	QConstant bool   `json:"q_constant"`
	QViolates bool   `json:"q_violates,omitempty"`

	PassWitness     []int64 `json:"pass_witness,omitempty"`
	AlterWitness    []int64 `json:"alter_witness,omitempty"`
	WithholdWitness []int64 `json:"withhold_witness,omitempty"`
}

// MergeClassSummaries folds two summaries of the same class from disjoint
// parts of the index space: Q is constant only if both parts are constant
// and agree, and each witness keeps the lesser input. The result does not
// depend on which part comes first, so neither
// the worker schedule nor the shard order reaches the verdict. It is the
// per-worker fold of CheckMaximalityContext and the cross-node fold of
// check.Merge.
func MergeClassSummaries(a, b ClassSummary) ClassSummary {
	if !b.QConstant || a.QObs != b.QObs || a.QViolates != b.QViolates {
		a.QConstant, a.QObs, a.QViolates = false, "", false
	}
	a.PassWitness = leastInput(a.PassWitness, b.PassWitness)
	a.AlterWitness = leastInput(a.AlterWitness, b.AlterWitness)
	a.WithholdWitness = leastInput(a.WithholdWitness, b.WithholdWitness)
	return a
}

// LessInput reports whether input a precedes input b lexicographically by
// value. nil stands for "no witness" and sorts after every input.
func LessInput(a, b []int64) bool {
	if a == nil || b == nil {
		return a != nil && b == nil
	}
	return slices.Compare(a, b) < 0
}

func leastInput(a, b []int64) []int64 {
	if LessInput(b, a) {
		return b
	}
	return a
}

// Deviation applies Theorem 2 to one class's whole-domain evidence. On a
// varying class the maximal mechanism issues Λ, so any pass leaks; on a
// constant class it reproduces Q, so a pass that alters Q's observation
// (a violating Q included) or a withhold where Q passes deviates. It
// returns the class's least deviating input and how m deviated there, or
// a nil witness when m agrees with the maximal mechanism on the class.
func (cs ClassSummary) Deviation() (witness []int64, reason string) {
	switch {
	case !cs.QConstant:
		witness, reason = cs.PassWitness, ReasonLeaks
	case !cs.QViolates && LessInput(cs.WithholdWitness, cs.AlterWitness):
		witness, reason = cs.WithholdWitness, ReasonWithholds
	default:
		witness, reason = cs.AlterWitness, ReasonAlters
	}
	if witness == nil {
		return nil, ""
	}
	return witness, reason
}

// LeastDeviation is the one maximality verdict rule: it applies Deviation
// to every class of the table and returns the lexicographically least
// deviating input and its reason, or a nil witness when m is maximal. With
// local set the table covers only part of the index space, so only the
// deviations no other part can undo count: a pass on a class whose Q
// observation already varies within the part, a leak however the rest of
// the class turns out. The scan is linear and visits classes in any order;
// since no input belongs to two classes the result depends only on the
// table's contents.
func LeastDeviation(classes map[string]ClassSummary, local bool) (witness []int64, reason string) {
	for _, cs := range classes {
		if local && cs.QConstant {
			continue
		}
		if w, r := cs.Deviation(); LessInput(w, witness) {
			witness, reason = w, r
		}
	}
	return witness, reason
}

// keyedClass is ClassSummary on integer keys: Q's first-seen outcome
// instead of its rendering, meaningful only while qConstant holds, and the
// witnesses as value indices, noWitness for none.
type keyedClass struct {
	q                     Outcome
	qConstant             bool
	pass, alter, withhold int
}

// maxClass is one class's entry in a maximality worker's table: m's
// soundness summary, whose at marks the slot filled, beside the class's
// maximality evidence, so a lane folds both through one slot.
type maxClass struct {
	view  keyedView
	class keyedClass
}

// merge is MergeClassSummaries on integer keys, comparing outcomes as
// fk does.
func (a *keyedClass) merge(b *keyedClass, fk *foldKeys) {
	if !b.qConstant || !fk.same(&a.q, &b.q) {
		a.qConstant = false
	}
	a.pass = min(a.pass, b.pass)
	a.alter = min(a.alter, b.alter)
	a.withhold = min(a.withhold, b.withhold)
}

// deviation is ClassSummary.Deviation on integer keys; the witness is
// noWitness when m agrees with the maximal mechanism on the class.
func (a *keyedClass) deviation() (witness int, reason string) {
	switch {
	case !a.qConstant:
		return a.pass, ReasonLeaks
	case !a.q.Violation && a.withhold < a.alter:
		return a.withhold, ReasonWithholds
	default:
		return a.alter, ReasonAlters
	}
}

// CheckMaximalityContext is the engine behind every parallel maximality
// verdict — check.Run dispatches here, whole-domain and sharded alike. A
// single enumeration pass over cc's range runs Q and m per tuple and folds
// per-class evidence into per-worker tables keyed by integers (see
// foldKeys), merged at the end; the LeastDeviation rule then runs on value
// indices, which order as LessInput orders their inputs, and ClassSummary
// strings are rendered only under cc.CollectViews. Class constancy is a
// whole-domain property, so with cc.CollectViews — the range is one shard
// of a larger run — the report carries the merged table as Classes and
// fails only on a locally definitive leak, leaving the rest to
// check.Merge; without it the range is the whole question and the report
// is final. Either way the witness is the lexicographically least
// deviating input the rule sees, so the verdict does not depend on worker
// count, chunking, shard split, segmenting or the order the axes list
// their values in. Checked counts each tuple once. Cancelling ctx stops
// the sweep within one chunk and returns ctx's error with a partial
// report.
//
// A maximal mechanism is first a sound one, so the same pass also decides
// m's soundness: each lane folds m's outcome into the class's soundness
// summary by CheckSoundnessContext's rule, in the same table slot as the
// maximality evidence. The report's Soundness is therefore the report
// CheckSoundnessContext gives for m over the same range and cc, Views
// included under cc.CollectViews.
func CheckMaximalityContext(ctx context.Context, m, q Mechanism, pol Policy, dom Domain, obs Observation, cc CheckConfig) (MaximalityReport, error) {
	rep, err := maximalityPreflight(m, q, pol, dom, obs)
	if err != nil {
		return rep, err
	}
	rep.Soundness = SoundnessReport{Mechanism: rep.Mechanism, Policy: rep.Policy, Observation: rep.Observation, Sound: true}
	fk, err := newFoldKeys(pol, dom, obs, cc)
	if err != nil {
		return rep, err
	}
	type shard struct {
		viewFold
		classes keyTable[maxClass]
		ids     classIDs
		checked int
		live    bool
	}
	shards := make([]shard, cc.ResolvedWorkers(sweep.Size(dom)))
	if err := sweepOutcomes(ctx, dom, cc, []Mechanism{q, m}, func(w int, input, last []int64, outs [][]Outcome) error {
		s := &shards[w]
		if !s.live {
			s.classes, s.live = newKeyTable[maxClass](fk), true
		}
		s.checked += len(outs[0])
		at0, key0 := fk.prefix(input)
		for lane := range outs[0] {
			at, key := fk.lane(at0, key0, last, lane)
			if fk.intern != nil {
				key = fk.interned(&s.ids, input, last, lane)
			}
			qo, mo := &outs[0][lane], &outs[1][lane]
			e := s.classes.at(key)
			c := &e.class
			if e.view.at == 0 {
				*c = keyedClass{q: *qo, qConstant: true, pass: noWitness, alter: noWitness, withhold: noWitness}
			} else if c.qConstant && !fk.same(&c.q, qo) {
				c.qConstant = false
			}
			s.add(&e.view, at, mo, fk)
			if !mo.Violation {
				c.pass = min(c.pass, at)
				if at < c.alter && (qo.Violation || !fk.same(mo, qo)) {
					c.alter = at
				}
			} else if !qo.Violation {
				c.withhold = min(c.withhold, at)
			}
		}
		return nil
	}); err != nil {
		return rep, err
	}

	// Fold every worker's table into the first.
	merged := &shards[0]
	if !merged.live {
		merged.classes = newKeyTable[maxClass](fk)
	}
	classes := &merged.classes
	for w := range shards {
		rep.Checked += shards[w].checked
		if w == 0 || !shards[w].live {
			continue
		}
		s := &shards[w]
		s.classes.each(func(key int, e *maxClass) {
			if e.view.at == 0 {
				return
			}
			prev := classes.at(fk.rekey(&merged.ids, &s.ids, key))
			if prev.view.at == 0 {
				prev.class = e.class
			} else {
				prev.class.merge(&e.class, fk)
			}
			merged.merge(&prev.view, &s.viewFold, &e.view, fk)
		})
	}
	witness := func(at int) []int64 {
		if at == noWitness {
			return nil
		}
		return fk.input(at)
	}
	least, reason := noWitness, ""
	classes.each(func(_ int, e *maxClass) {
		if e.view.at == 0 || cc.CollectViews && e.class.qConstant {
			return
		}
		if w, r := e.class.deviation(); w < least {
			least, reason = w, r
		}
	})
	rep.Witness, rep.Reason = witness(least), reason
	rep.Maximal = rep.Witness == nil
	rep.Soundness.Checked = rep.Checked
	merged.report(&rep.Soundness, func(f func(*keyedView)) {
		classes.each(func(_ int, e *maxClass) { f(&e.view) })
	}, pol, obs, fk, cc.CollectViews)
	if cc.CollectViews {
		rep.Classes = make(map[string]ClassSummary)
		classes.each(func(_ int, e *maxClass) {
			if e.view.at == 0 {
				return
			}
			c := &e.class
			cs := ClassSummary{
				QConstant:       c.qConstant,
				PassWitness:     witness(c.pass),
				AlterWitness:    witness(c.alter),
				WithholdWitness: witness(c.withhold),
			}
			if c.qConstant {
				cs.QObs, cs.QViolates = obs.Render(c.q), c.q.Violation
			}
			rep.Classes[pol.View(fk.input(e.view.at-1))] = cs
		})
	}
	return rep, nil
}

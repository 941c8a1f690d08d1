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
	// QObs is Q's first-seen rendered observation in the range's slice of
	// the class; QConstant reports whether it stayed constant within the
	// range; QViolates whether Q issued a violation notice at that first
	// input. Merging requires observations that render violations
	// distinguishably, which every Observation in this library does.
	QObs      string `json:"q_obs"`
	QConstant bool   `json:"q_constant"`
	QViolates bool   `json:"q_violates,omitempty"`

	PassWitness     []int64 `json:"pass_witness,omitempty"`
	AlterWitness    []int64 `json:"alter_witness,omitempty"`
	WithholdWitness []int64 `json:"withhold_witness,omitempty"`
}

// MergeClassSummaries folds two summaries of the same class from disjoint
// parts of the index space: Q is constant only if both parts are constant
// and agree, and each witness keeps the lesser input. The witnesses and
// the constancy bit do not depend on which part comes first, so neither
// the worker schedule nor the shard order reaches the verdict. It is the
// per-worker fold of CheckMaximalityContext and the cross-node fold of
// check.Merge.
func MergeClassSummaries(a, b ClassSummary) ClassSummary {
	if !b.QConstant || a.QObs != b.QObs {
		a.QConstant = false
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

// keepLeast stores input into *w if it precedes the witness held there,
// reusing the held slice's storage. It reports whether *w is a new slice.
func keepLeast(w *[]int64, input []int64) (fresh bool) {
	switch {
	case *w == nil:
		*w = append(make([]int64, 0, len(input)), input...)
		return true
	case LessInput(input, *w):
		copy(*w, input)
	}
	return false
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

// CheckMaximalityContext is the engine behind every parallel maximality
// verdict — check.Run dispatches here, whole-domain and sharded alike. A
// single enumeration pass over cc's range runs Q and m per tuple and folds
// per-class evidence (ClassSummary) into per-worker tables, merged at the
// end; LeastDeviation then renders the verdict. Class constancy is a
// whole-domain property, so with cc.CollectViews — the range is one shard
// of a larger run — the report carries the merged table as Classes and
// fails only on a locally definitive leak, leaving the rest to
// check.Merge; without it the range is the whole question and the report
// is final. Either way the witness is the lexicographically least
// deviating input the rule sees, so the verdict does not depend on worker
// count, chunking, shard split or segmenting. Checked counts each tuple
// once. Cancelling ctx stops the sweep within one chunk and returns ctx's
// error with a partial report.
func CheckMaximalityContext(ctx context.Context, m, q Mechanism, pol Policy, dom Domain, obs Observation, cc CheckConfig) (MaximalityReport, error) {
	rep, err := maximalityPreflight(m, q, pol, dom, obs)
	if err != nil {
		return rep, err
	}
	workers := cc.ResolvedWorkers(sweep.Size(dom))

	type shard struct {
		classes map[string]ClassSummary
		checked int
	}
	shards := make([]shard, workers)
	for w := range shards {
		shards[w] = shard{classes: make(map[string]ClassSummary)}
	}
	if err := sweepOutcomes(ctx, dom, cc, []Mechanism{q, m}, func(w int, input []int64, outs []Outcome) error {
		s := &shards[w]
		qo, mo := outs[0], outs[1]
		s.checked++
		view := pol.View(input)
		rq := obs.Render(qo)
		cs, seen := s.classes[view]
		if !seen {
			cs = ClassSummary{QObs: rq, QConstant: true, QViolates: qo.Violation}
		}
		// Witness storage is reused in place, so the map needs a write
		// only when a field changes identity.
		dirty := !seen
		if cs.QConstant && cs.QObs != rq {
			cs.QConstant, dirty = false, true
		}
		if !mo.Violation {
			dirty = keepLeast(&cs.PassWitness, input) || dirty
			if LessInput(input, cs.AlterWitness) && (qo.Violation || obs.Render(mo) != rq) {
				dirty = keepLeast(&cs.AlterWitness, input) || dirty
			}
		} else if !qo.Violation {
			dirty = keepLeast(&cs.WithholdWitness, input) || dirty
		}
		if dirty {
			s.classes[view] = cs
		}
		return nil
	}); err != nil {
		return rep, err
	}

	// Fold every worker's table into the first, in place.
	classes := shards[0].classes
	for w := range shards {
		rep.Checked += shards[w].checked
		if w == 0 {
			continue
		}
		for view, cs := range shards[w].classes {
			if prev, ok := classes[view]; ok {
				cs = MergeClassSummaries(prev, cs)
			}
			classes[view] = cs
		}
	}
	rep.Witness, rep.Reason = LeastDeviation(classes, cc.CollectViews)
	rep.Maximal = rep.Witness == nil
	if cc.CollectViews {
		rep.Classes = classes
	}
	return rep, nil
}

package core

import (
	"fmt"
)

// MaximalityReport is the result of CheckMaximality: whether a mechanism is
// extensionally the Theorem 2 maximal sound mechanism for (q, pol) over the
// domain, up to violation-notice equivalence.
type MaximalityReport struct {
	Mechanism   string
	Program     string
	Policy      string
	Observation string
	Maximal     bool
	Checked     int
	// On failure, an input where m deviates from the maximal mechanism and
	// which of the three ways it deviated.
	Witness []int64
	Reason  string
	// Classes is the per-class evidence table of a sharded run
	// (CheckMaximalityContext with CheckConfig.CollectViews): maximality
	// over a shard cannot be decided locally because class constancy is a
	// whole-domain property, so the shard exports what it saw and
	// check.Merge renders the verdict.
	Classes map[string]ClassSummary
	// Soundness is m's soundness over the same range, decided by
	// CheckMaximalityContext in its one pass: a maximal mechanism is
	// first a sound one. CheckMaximality leaves it zero.
	Soundness SoundnessReport
}

// Reasons a mechanism can fail the maximality check.
const (
	// ReasonLeaks: m returns real output on a class where Q's observation
	// varies — m is not even sound there.
	ReasonLeaks = "passes on a class where Q's observation varies (unsound)"
	// ReasonWithholds: m issues Λ on a class where Q's observation is
	// constant — a sounder-than-necessary refusal, so m is not maximal.
	ReasonWithholds = "withholds output on a Q-constant class (not maximal)"
	// ReasonAlters: m passes but with a different observation than Q's —
	// it is not a mechanism for Q at that input.
	ReasonAlters = "returns an observation different from Q's"
)

// String summarises the report.
func (r MaximalityReport) String() string {
	if r.Maximal {
		return fmt.Sprintf("%s is MAXIMAL for %s/%s under %s (%d inputs checked)",
			r.Mechanism, r.Program, r.Policy, r.Observation, r.Checked)
	}
	return fmt.Sprintf("%s is NOT maximal for %s/%s under %s: at %s it %s",
		r.Mechanism, r.Program, r.Policy, r.Observation, FormatInputs(r.Witness), r.Reason)
}

// classTable records, per policy view, Q's first-seen observation and
// whether it stayed constant across the class.
type classTable map[string]*classState

type classState struct {
	obs      string
	constant bool
}

func (t classTable) add(view, rendered string) {
	if cs, ok := t[view]; ok {
		if cs.obs != rendered {
			cs.constant = false
		}
		return
	}
	t[view] = &classState{obs: rendered, constant: true}
}

// maximalVerdict applies the maximality rule at one input: on a Q-constant
// class m must reproduce Q's observation (a violation if Q violates, the
// same rendered value otherwise); on a varying class m must issue Λ.
func maximalVerdict(classes classTable, view string, qo, mo Outcome, obs Observation) (ok bool, reason string) {
	cs := classes[view]
	if !cs.constant {
		if mo.Violation {
			return true, ""
		}
		return false, ReasonLeaks
	}
	if qo.Violation {
		if mo.Violation {
			return true, ""
		}
		return false, ReasonAlters
	}
	if mo.Violation {
		return false, ReasonWithholds
	}
	if obs.Render(mo) != obs.Render(qo) {
		return false, ReasonAlters
	}
	return true, ""
}

// CheckMaximality decides, by exhaustive enumeration of dom, whether m is
// the maximal sound protection mechanism for program q and policy pol under
// obs (Theorem 2), treating all violation notices as equivalent: m must
// release Q's observation exactly on the inputs whose policy class is
// Q-constant, and issue Λ everywhere else. It is the test oracle for
// CheckMaximalityContext, the one-pass parallel engine: both agree on
// Maximal, Checked and Reason, and on an ascending domain (every axis
// listed in increasing order) on Witness too — the first deviating input
// in enumeration order is then also the lexicographically least.
func CheckMaximality(m, q Mechanism, pol Policy, dom Domain, obs Observation) (MaximalityReport, error) {
	rep, err := maximalityPreflight(m, q, pol, dom, obs)
	if err != nil {
		return rep, err
	}
	// Pass 1: which classes are Q-constant.
	classes := make(classTable)
	if err := dom.Enumerate(func(input []int64) error {
		qo, err := q.Run(input)
		if err != nil {
			return err
		}
		classes.add(pol.View(input), obs.Render(qo))
		return nil
	}); err != nil {
		return rep, err
	}
	// Pass 2: m must match the tabulated maximal mechanism everywhere.
	if err := dom.Enumerate(func(input []int64) error {
		qo, err := q.Run(input)
		if err != nil {
			return err
		}
		mo, err := m.Run(input)
		if err != nil {
			return err
		}
		rep.Checked++
		if ok, reason := maximalVerdict(classes, pol.View(input), qo, mo, obs); !ok && rep.Maximal {
			rep.Maximal = false
			rep.Witness = append([]int64(nil), input...)
			rep.Reason = reason
		}
		return nil
	}); err != nil {
		return rep, err
	}
	return rep, nil
}

func maximalityPreflight(m, q Mechanism, pol Policy, dom Domain, obs Observation) (MaximalityReport, error) {
	rep := MaximalityReport{Mechanism: m.Name(), Program: q.Name(), Policy: pol.Name(), Observation: obs.ObsName, Maximal: true}
	if m.Arity() != q.Arity() || q.Arity() != pol.Arity() || len(dom) != q.Arity() {
		return rep, fmt.Errorf("core: arity mismatch: mechanism %d, program %d, policy %d, domain %d",
			m.Arity(), q.Arity(), pol.Arity(), len(dom))
	}
	return rep, nil
}

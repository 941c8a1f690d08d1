package core

import (
	"fmt"
	"strconv"
	"strings"

	"spm/internal/lattice"
)

// Policy is a security policy I : D1 × ... × Dk → 𝔜, an information filter.
// View returns a canonical encoding of I(input); two inputs with equal
// views are indistinguishable under the policy, and a sound mechanism must
// behave identically on them. This is the extensional content of the
// paper's definition M = M′ ∘ I.
type Policy interface {
	// Name identifies the policy in reports, e.g. "allow(1,3)".
	Name() string
	// Arity returns k.
	Arity() int
	// View canonically encodes I(input).
	View(input []int64) string
}

// Allow is the paper's allow(i1,...,im) policy: the user may obtain
// information about exactly the inputs whose 1-based indices are in the
// set. allow() permits nothing; allow(1..k) permits everything.
type Allow struct {
	K       int
	Allowed lattice.IndexSet
}

// NewAllow builds allow(indices...) for a program of the given arity.
func NewAllow(arity int, indices ...int) *Allow {
	s := lattice.NewIndexSet(indices...)
	if !s.SubsetOf(lattice.AllInputs(arity)) {
		panic(fmt.Sprintf("core: allow%v exceeds arity %d", s, arity))
	}
	return &Allow{K: arity, Allowed: s}
}

// NewAllowSet builds allow(J) from an index set.
func NewAllowSet(arity int, allowed lattice.IndexSet) *Allow {
	if !allowed.SubsetOf(lattice.AllInputs(arity)) {
		panic(fmt.Sprintf("core: allow%v exceeds arity %d", allowed, arity))
	}
	return &Allow{K: arity, Allowed: allowed}
}

// Name implements Policy.
func (a *Allow) Name() string {
	idx := a.Allowed.Indices()
	parts := make([]string, len(idx))
	for i, v := range idx {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "allow(" + strings.Join(parts, ",") + ")"
}

// Arity implements Policy.
func (a *Allow) Arity() int { return a.K }

// renderView canonically encodes the projection of input onto the indices
// in set. The parallel engines key their tables by integers and call it
// only where a verdict leaves core (Views and Classes evidence); the
// sequential oracles call it once per tuple, so it walks the index bitmask
// directly and appends into a stack buffer, leaving the string conversion
// its only allocation (for views up to 64 bytes).
func renderView(set lattice.IndexSet, input []int64) string {
	var stack [64]byte
	buf := stack[:0]
	for i := 1; i <= len(input); i++ {
		if set.Contains(i) {
			buf = strconv.AppendInt(buf, input[i-1], 10)
			buf = append(buf, '|')
		}
	}
	return string(buf)
}

// View implements Policy: the projection (d_{i1}, ..., d_{im}).
func (a *Allow) View(input []int64) string {
	return renderView(a.Allowed, input)
}

// Content is a content-dependent policy defined by an arbitrary view
// function, such as the file-system policy of Example 2 where the i-th file
// is visible exactly when the i-th directory says "YES". The paper's
// definition of security policy admits any such function.
type Content struct {
	PolicyName string
	K          int
	ViewFn     func(input []int64) string
}

// NewContent builds a content-dependent policy.
func NewContent(name string, arity int, view func(input []int64) string) *Content {
	return &Content{PolicyName: name, K: arity, ViewFn: view}
}

// Name implements Policy.
func (c *Content) Name() string { return c.PolicyName }

// Arity implements Policy.
func (c *Content) Arity() int { return c.K }

// View implements Policy.
func (c *Content) View(input []int64) string { return c.ViewFn(input) }

// Integrity is the dual ("data security", Popek) reading of allow: inputs
// in Trusted are the only ones permitted to influence the output. Formally
// it is the same filter as Allow — the paper asserts the same methods
// handle the second security question — but it is named separately so
// reports read correctly.
type Integrity struct {
	K       int
	Trusted lattice.IndexSet
}

// NewIntegrity builds an integrity policy trusting the given indices.
func NewIntegrity(arity int, indices ...int) *Integrity {
	s := lattice.NewIndexSet(indices...)
	if !s.SubsetOf(lattice.AllInputs(arity)) {
		panic(fmt.Sprintf("core: integrity%v exceeds arity %d", s, arity))
	}
	return &Integrity{K: arity, Trusted: s}
}

// Name implements Policy.
func (p *Integrity) Name() string {
	idx := p.Trusted.Indices()
	parts := make([]string, len(idx))
	for i, v := range idx {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "integrity(" + strings.Join(parts, ",") + ")"
}

// Arity implements Policy.
func (p *Integrity) Arity() int { return p.K }

// View implements Policy.
func (p *Integrity) View(input []int64) string {
	return renderView(p.Trusted, input)
}

// Observation selects what the user can see of an outcome — the formal
// knob for the observability postulate. CheckSoundness verifies that the
// chosen observation of M's output is constant on every policy class.
type Observation struct {
	// ObsName identifies the observation in reports.
	ObsName string
	// Render canonically encodes the observable part of an outcome.
	Render func(Outcome) string
	// sees is what of an outcome the observation shows, so that the
	// parallel engines compare outcomes without rendering them and call
	// Render only where a verdict leaves core. The built-in observations
	// set it; a user-built Observation leaves it unset and is compared by
	// its rendering.
	sees visibility
}

// visibility lists what an observation shows of an outcome beyond the
// violation bit and the value of a real output.
type visibility struct {
	// ok marks a set visibility.
	ok bool
	// steps and violationSteps show the running time of a real output
	// and of a violation notice; notices shows the notice text.
	steps, violationSteps, notices bool
}

// same reports whether a and b look the same: for every built-in
// observation, exactly when they render equal.
func (v visibility) same(a, b *Outcome) bool {
	if a.Violation != b.Violation {
		return false
	}
	if a.Violation {
		return (!v.violationSteps || a.Steps == b.Steps) && (!v.notices || a.Notice == b.Notice)
	}
	return a.Value == b.Value && (!v.steps || a.Steps == b.Steps)
}

// ObserveValue sees the output value (or the violation notice) but not the
// running time: the paper's first flowchart case, range Z.
var ObserveValue = Observation{
	ObsName: "value",
	Render: func(o Outcome) string {
		if o.Violation {
			return "Λ[" + o.Notice + "]"
		}
		return "v=" + strconv.FormatInt(o.Value, 10)
	},
	sees: visibility{ok: true, notices: true},
}

// ObserveValueAndTime sees the pair (value, steps): the paper's second
// flowchart case, range Z × Z, where running time is observable.
var ObserveValueAndTime = Observation{
	ObsName: "value+time",
	Render: func(o Outcome) string {
		if o.Violation {
			return "Λ[" + o.Notice + "]@" + strconv.FormatInt(o.Steps, 10)
		}
		return "v=" + strconv.FormatInt(o.Value, 10) + "@" + strconv.FormatInt(o.Steps, 10)
	},
	sees: visibility{ok: true, steps: true, violationSteps: true, notices: true},
}

// CoarseNotices wraps an observation so all violation notices look
// identical (and, for ObserveValue, timeless). Use it to model users who
// cannot distinguish notice texts; with the strict observations above,
// notice texts count as output and mechanisms that leak through them —
// Denning's and Rotenberg's examples (the paper's Example 4) — are caught
// as unsound.
func CoarseNotices(obs Observation) Observation {
	timed := obs.ObsName == ObserveValueAndTime.ObsName
	sees := obs.sees
	sees.violationSteps, sees.notices = timed, false
	return Observation{
		ObsName: obs.ObsName + "/coarse-Λ",
		Render: func(o Outcome) string {
			if o.Violation {
				if timed {
					return fmt.Sprintf("Λ@%d", o.Steps)
				}
				return "Λ"
			}
			return obs.Render(o)
		},
		sees: sees,
	}
}

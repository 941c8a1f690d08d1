package check

import (
	"errors"
	"fmt"
	"sort"

	"spm/internal/core"
)

// ErrBadMerge wraps every Merge-validation failure: no parts, mixed kinds,
// or parts naming different mechanisms, programs, policies, or
// observations.
var ErrBadMerge = errors.New("check: cannot merge verdicts")

// Merge folds the partial verdicts of a sharded run into the whole-domain
// verdict, using the same cross-shard semantics the in-process parallel
// checkers apply between workers (internal/core/parallel.go): per-worker
// tables there, per-node tables here.
//
// All parts must have the same Kind and name the same mechanism, program,
// policy, and observation. Checked totals and pass counts sum, so when the
// parts partition the index space the merged Checked equals the
// whole-domain count; overlapping parts (a shard retried on two nodes with
// both results kept) stay sound — duplicate evidence is idempotent — but
// inflate Checked, which is why the cluster coordinator keeps exactly one
// result per shard.
//
// Soundness: the parts' Views tables are folded class by class with
// core.MergeViewObs and rendered by core.LeastConflict, the rule the
// in-process checker applies, so for parts that partition the index space
// the merged verdict, witness pair and ObsA/ObsB included, is
// byte-identical to a whole-domain Run. A part without a table (a
// whole-domain verdict) contributes its own witness pair. Maximality: the
// parts' Views tables render the mechanism's soundness as above, and their
// Classes tables are folded into the global class table (constancy =
// constant in every shard with one agreed observation) and rendered by
// core.LeastDeviation, so for parts that partition the index space the
// merged verdict, witness and reason and soundness fields included, is
// byte-identical to a whole-domain Run.
//
// The merged verdict is a whole-domain one: Shard is zero and the evidence
// tables are dropped.
func Merge(parts ...Verdict) (Verdict, error) {
	if len(parts) == 0 {
		return Verdict{}, fmt.Errorf("%w: no parts", ErrBadMerge)
	}
	sorted := make([]Verdict, len(parts))
	copy(sorted, parts)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Shard.Offset < sorted[j].Shard.Offset })

	out := Verdict{
		Kind:        sorted[0].Kind,
		Mechanism:   sorted[0].Mechanism,
		Program:     sorted[0].Program,
		Policy:      sorted[0].Policy,
		Observation: sorted[0].Observation,
	}
	for _, p := range sorted {
		if p.Kind != out.Kind {
			return out, fmt.Errorf("%w: mixed kinds %v and %v", ErrBadMerge, out.Kind, p.Kind)
		}
		if p.Mechanism != out.Mechanism || p.Program != out.Program ||
			p.Policy != out.Policy || p.Observation != out.Observation {
			return out, fmt.Errorf("%w: parts describe different checks (%s/%s/%s/%s vs %s/%s/%s/%s)",
				ErrBadMerge, out.Mechanism, out.Program, out.Policy, out.Observation,
				p.Mechanism, p.Program, p.Policy, p.Observation)
		}
		out.Checked += p.Checked
	}

	switch out.Kind {
	case Soundness:
		mergeSoundness(&out, sorted)
	case Maximality:
		mergeSoundness(&out, sorted)
		mergeMaximality(&out, sorted)
	case PassCount:
		for _, p := range sorted {
			out.Passes += p.Passes
		}
	default:
		return out, fmt.Errorf("%w: unknown kind %v", ErrBadMerge, out.Kind)
	}
	return out, nil
}

// mergeSoundness folds the parts' view tables and renders the verdict.
func mergeSoundness(out *Verdict, parts []Verdict) {
	merged := make(map[string]core.ViewObs)
	for _, p := range parts {
		foldViews(merged, p.Views)
	}
	renderSoundness(out, merged, parts)
}

// foldViews folds the view table from into into, class by class.
func foldViews(into, from map[string]core.ViewObs) {
	for view, e := range from {
		if prev, ok := into[view]; ok {
			e = core.MergeViewObs(prev, e)
		}
		into[view] = e
	}
}

// renderSoundness sets out's soundness fields from the folded view table:
// the class with the least conflict decides (core.LeastConflict). A part's
// own witness pair wins only where its conflict is strictly less, which
// happens only for a part that carries no table — a table's least conflict
// never exceeds a part's own.
func renderSoundness(out *Verdict, views map[string]core.ViewObs, parts []Verdict) {
	out.Sound, out.WitnessA, out.WitnessB, out.ObsA, out.ObsB = true, nil, nil, "", ""
	if e, ok := core.LeastConflict(views); ok {
		out.Sound = false
		out.WitnessA, out.WitnessB, out.ObsA, out.ObsB = e.Witness, e.Conflict.Input, e.Obs, e.Conflict.Obs
	}
	for _, p := range parts {
		if !p.Sound && (out.Sound || core.LessInput(p.WitnessB, out.WitnessB)) {
			out.Sound = false
			out.WitnessA, out.WitnessB, out.ObsA, out.ObsB = p.WitnessA, p.WitnessB, p.ObsA, p.ObsB
		}
	}
}

// mergeMaximality folds the parts' evidence tables into the global class
// table and renders it with core.LeastDeviation, the rule whole-domain Run
// applies, so the merged witness is the domain's least deviating input
// whatever the split. A part's own failure (a locally definitive leak, or
// a whole-domain verdict without a table) is a candidate too; the least
// candidate wins.
func mergeMaximality(out *Verdict, parts []Verdict) {
	global := make(map[string]core.ClassSummary)
	for _, p := range parts {
		for view, cs := range p.Classes {
			if prev, ok := global[view]; ok {
				cs = core.MergeClassSummaries(prev, cs)
			}
			global[view] = cs
		}
	}
	out.Witness, out.Reason = core.LeastDeviation(global, false)
	out.Maximal = out.Witness == nil
	for _, p := range parts {
		if p.Maximal {
			continue
		}
		out.Maximal = false
		if core.LessInput(p.Witness, out.Witness) {
			out.Witness, out.Reason = p.Witness, p.Reason
		}
	}
}

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
// Soundness: the merged verdict is unsound if any part is, or if two parts
// observed the same policy view differently — the conflict no single shard
// can see; witness choice prefers the lowest-offset shard and is
// deterministic for a given set of parts, but — exactly as with the
// in-process parallel checker — may differ from the sequential checker's
// witness when several exist. Maximality: the parts' Classes tables are
// folded into the global class table (constancy = constant in every shard
// with one agreed observation) and rendered by core.LeastDeviation, so
// for parts that partition the index space the merged verdict, witness
// and reason included, is byte-identical to a whole-domain Run.
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

// mergeSoundness folds shard soundness verdicts: any locally-unsound part
// decides the verdict; otherwise the per-shard view tables are merged and
// the first cross-shard disagreement on a class does.
func mergeSoundness(out *Verdict, parts []Verdict) {
	out.Sound = true
	for _, p := range parts {
		if !p.Sound && out.Sound {
			out.Sound = false
			out.WitnessA, out.WitnessB = p.WitnessA, p.WitnessB
			out.ObsA, out.ObsB = p.ObsA, p.ObsB
		}
	}
	merged := make(map[string]core.ViewObs)
	for _, p := range parts {
		for _, view := range sortedKeys(p.Views) {
			e := p.Views[view]
			prev, ok := merged[view]
			if !ok {
				merged[view] = e
				continue
			}
			if prev.Obs != e.Obs && out.Sound {
				out.Sound = false
				out.WitnessA, out.WitnessB = prev.Witness, e.Witness
				out.ObsA, out.ObsB = prev.Obs, e.Obs
			}
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

// sortedKeys returns m's keys in sorted order, so merge results are
// deterministic for a given set of parts.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

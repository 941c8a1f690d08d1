package check

import (
	"fmt"

	"spm/internal/core"
)

// Verdict is the common result of Run: the fields relevant to the Spec's
// kind are populated, the rest stay zero. It flattens the three legacy
// report types so callers (the service's wire format, the CLI) handle one
// shape.
//
// Verdict round-trips through encoding/json without loss — including the
// Views/Classes evidence tables — which is what lets the persistent
// verdict store checkpoint a partially-swept job's folded evidence and
// resume it after a restart (see RunCheckpointed and internal/store).
type Verdict struct {
	Kind Kind `json:"kind"`
	// Names, as reported by the checked artifacts.
	Mechanism   string `json:"mechanism,omitempty"`
	Program     string `json:"program,omitempty"` // Maximality only: the reference Q
	Policy      string `json:"policy,omitempty"`
	Observation string `json:"observation,omitempty"`
	// Checked counts the tuples visited by the verdict pass.
	Checked int `json:"checked"`

	// Soundness, and Maximality too: whether the observation of the
	// mechanism's output factors through the policy view; on failure, two
	// inputs sharing a view with different observations. A maximal
	// mechanism is first a sound one, so a Maximality verdict carries the
	// soundness verdict its one pass decided, equal to a Soundness Run's
	// over the same range.
	Sound    bool    `json:"sound,omitempty"`
	WitnessA []int64 `json:"witness_a,omitempty"`
	WitnessB []int64 `json:"witness_b,omitempty"`
	ObsA     string  `json:"obs_a,omitempty"`
	ObsB     string  `json:"obs_b,omitempty"`

	// Maximality: whether the mechanism is the Theorem 2 maximal sound
	// mechanism; on failure, the deviating input and how it deviated.
	Maximal bool    `json:"maximal,omitempty"`
	Witness []int64 `json:"witness,omitempty"`
	Reason  string  `json:"reason,omitempty"`

	// PassCount: inputs on which the mechanism returned real output.
	Passes int `json:"passes,omitempty"`

	// Shard echoes Spec.Shard: zero for whole-domain verdicts, the index
	// range for partial ones. Merge folds partial verdicts back into a
	// whole one.
	Shard Shard `json:"shard,omitzero"`

	// Views is the soundness evidence of a sharded Soundness or
	// Maximality run: per policy class, its least input in the shard, the
	// observation there, and the least input observed differently
	// (core.ViewObs). Two shards each internally sound can still disagree
	// on a class spanning them; Merge needs these tables to catch that.
	// Nil on whole-domain verdicts.
	Views map[string]core.ViewObs `json:"views,omitempty"`

	// Classes is the maximality evidence of a sharded run: per policy
	// class, Q's behaviour and m's deviations within the shard. Maximality
	// hinges on whole-domain class constancy, so a sharded run returns
	// evidence (plus any locally-definitive leak) and Merge renders the
	// verdict. Nil on whole-domain verdicts.
	Classes map[string]core.ClassSummary `json:"classes,omitempty"`
}

// SoundnessReport rebuilds the legacy report for a Soundness verdict.
func (v Verdict) SoundnessReport() core.SoundnessReport {
	return core.SoundnessReport{
		Mechanism:   v.Mechanism,
		Policy:      v.Policy,
		Observation: v.Observation,
		Sound:       v.Sound,
		Checked:     v.Checked,
		WitnessA:    v.WitnessA,
		WitnessB:    v.WitnessB,
		ObsA:        v.ObsA,
		ObsB:        v.ObsB,
	}
}

// MaximalityReport rebuilds the legacy report for a Maximality verdict,
// the mechanism's soundness included.
func (v Verdict) MaximalityReport() core.MaximalityReport {
	return core.MaximalityReport{
		Mechanism:   v.Mechanism,
		Program:     v.Program,
		Policy:      v.Policy,
		Observation: v.Observation,
		Maximal:     v.Maximal,
		Checked:     v.Checked,
		Witness:     v.Witness,
		Reason:      v.Reason,
		Soundness:   v.SoundnessReport(),
	}
}

// setSoundness copies a soundness report's verdict and evidence into v.
func (v *Verdict) setSoundness(rep core.SoundnessReport) {
	v.Policy = rep.Policy
	v.Checked = rep.Checked
	v.Sound = rep.Sound
	v.WitnessA, v.WitnessB = rep.WitnessA, rep.WitnessB
	v.ObsA, v.ObsB = rep.ObsA, rep.ObsB
	v.Views = rep.Views
}

// String renders the verdict in the same style as the legacy reports.
func (v Verdict) String() string {
	switch v.Kind {
	case Maximality:
		return v.MaximalityReport().String()
	case PassCount:
		return fmt.Sprintf("%s passes on %d of %d inputs", v.Mechanism, v.Passes, v.Checked)
	default:
		return v.SoundnessReport().String()
	}
}

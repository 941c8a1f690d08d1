package core

import (
	"context"
	"fmt"

	"spm/internal/sweep"
)

// CheckConfig tunes the context-aware checkers: the embedded sweep.Config
// controls parallelism, chunking, the shard range, and the progress
// cursor; Interpreted disables the compiled fast path so every tuple runs
// through Mechanism.Run (the ablation knob behind
// check.WithCompiled(false)); NoMemo keeps the compiled fast path but
// disables prefix memoization, so every tuple replays from instruction
// zero (the ablation knob behind check.WithMemo(false), and the baseline
// the prefix benchmarks compare against); NoStack keeps single-axis
// prefix memoization but disables the snapshot-stack tier — per-axis
// captures, constant-suffix pruning, and the content-addressed row cache
// (the ablation knob behind check.WithMemoStack(false), and the baseline
// the snapshot-stack benchmarks compare against); CollectViews marks the
// range as one shard of a larger run: the engines export their merged
// per-class evidence (SoundnessReport.Views, MaximalityReport.Classes) so
// the shard verdict can be folded with its siblings by check.Merge.
// Batch is the stride width (the knob behind check.WithBatch): each
// worker hands every mechanism strides of up to Batch innermost-axis
// tuples, which compiled mechanisms execute in lockstep over
// structure-of-arrays register columns; ≤ 1 is the one-lane stride, run
// on the scalar kernels. Each mechanism picks its runner on its own, so a
// mechanism with no compiled form runs lane by lane through Mechanism.Run
// beside compiled ones. Verdicts are identical across all tiers. Exec, when
// non-nil, receives execution-tier counters (memo captures/replays,
// batch strides/lanes/divergence — see ExecTally); nil keeps the hot
// paths entirely unobserved.
type CheckConfig struct {
	sweep.Config
	Interpreted  bool
	NoMemo       bool
	NoStack      bool
	CollectViews bool
	Batch        int
	Exec         *ExecTally
}

// viewEntry is one policy class's first-seen observation and witness input.
type viewEntry struct {
	obs   string
	input []int64
}

// CheckSoundnessContext is the engine behind every parallel soundness
// verdict — check.Run dispatches here. Workers pull chunks from a shared
// cursor and build per-worker view tables merged at the end; the verdict
// is deterministic, and with several workers the reported witness pair may
// differ from the sequential checker's when multiple counterexamples
// exist. Cancelling ctx stops the sweep within one chunk and returns
// ctx's error with a partial report.
func CheckSoundnessContext(ctx context.Context, m Mechanism, pol Policy, dom Domain, obs Observation, cc CheckConfig) (SoundnessReport, error) {
	rep := SoundnessReport{Mechanism: m.Name(), Policy: pol.Name(), Observation: obs.ObsName, Sound: true}
	if m.Arity() != pol.Arity() || len(dom) != m.Arity() {
		return rep, fmt.Errorf("core: arity mismatch: mechanism %d, policy %d, domain %d",
			m.Arity(), pol.Arity(), len(dom))
	}

	// Each worker builds a view → observation table and notes the first
	// conflict it sees; the merge then catches conflicts whose two inputs
	// were visited by different workers (views span chunks whenever the
	// policy ignores part of the input).
	type shard struct {
		views     map[string]viewEntry
		conflictA *viewEntry
		conflictB *viewEntry
		checked   int
	}
	workers := cc.ResolvedWorkers(sweep.Size(dom))
	shards := make([]shard, workers)
	for w := range shards {
		shards[w] = shard{views: make(map[string]viewEntry)}
	}
	err := sweepOutcomes(ctx, dom, cc, []Mechanism{m}, func(w int, input []int64, outs []Outcome) error {
		s := &shards[w]
		o := outs[0]
		s.checked++
		view := pol.View(input)
		rendered := obs.Render(o)
		prev, ok := s.views[view]
		if !ok {
			s.views[view] = viewEntry{obs: rendered, input: append([]int64(nil), input...)}
			return nil
		}
		if prev.obs != rendered && s.conflictA == nil {
			b := viewEntry{obs: rendered, input: append([]int64(nil), input...)}
			s.conflictA, s.conflictB = &prev, &b
		}
		return nil
	})
	if err != nil {
		return rep, err
	}

	merged := make(map[string]viewEntry)
	for w := range shards {
		s := &shards[w]
		rep.Checked += s.checked
		if s.conflictA != nil && rep.Sound {
			rep.Sound = false
			rep.WitnessA, rep.WitnessB = s.conflictA.input, s.conflictB.input
			rep.ObsA, rep.ObsB = s.conflictA.obs, s.conflictB.obs
		}
		for view, e := range s.views {
			prev, ok := merged[view]
			if !ok {
				merged[view] = e
				continue
			}
			if prev.obs != e.obs && rep.Sound {
				rep.Sound = false
				rep.WitnessA, rep.WitnessB = prev.input, e.input
				rep.ObsA, rep.ObsB = prev.obs, e.obs
			}
		}
	}
	if cc.CollectViews {
		rep.Views = make(map[string]ViewObs, len(merged))
		for view, e := range merged {
			rep.Views[view] = ViewObs{Obs: e.obs, Witness: e.input}
		}
	}
	return rep, nil
}

// PassCountContext counts the inputs in dom on which m returns real output
// (no violation notice) — the utility column of the experiment tables —
// and is the engine behind every pass count: check.Run dispatches here. Cancelling ctx stops the sweep within one chunk and
// returns ctx's error.
func PassCountContext(ctx context.Context, m Mechanism, dom Domain, cc CheckConfig) (int, error) {
	if len(dom) != m.Arity() {
		return 0, fmt.Errorf("core: arity mismatch: mechanism %d, domain %d", m.Arity(), len(dom))
	}
	workers := cc.ResolvedWorkers(sweep.Size(dom))
	counts := make([]int, workers)
	err := sweepOutcomes(ctx, dom, cc, []Mechanism{m}, func(w int, input []int64, outs []Outcome) error {
		if !outs[0].Violation {
			counts[w]++
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	return total, nil
}

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

// keyedView is one policy class's first-seen outcome and the value index
// of its witness plus one; 0 marks an empty slot.
type keyedView struct {
	obs Outcome
	at  int
}

// CheckSoundnessContext is the engine behind every parallel soundness
// verdict — check.Run dispatches here. Workers pull chunks from a shared
// cursor and build per-worker class tables merged at the end; the verdict
// is deterministic, and with several workers the reported witness pair may
// differ from the sequential checker's when multiple counterexamples
// exist. Cancelling ctx stops the sweep within one chunk and returns
// ctx's error with a partial report.
//
// The tables are keyed by integers (see foldKeys) and hold value indices
// and outcomes, compared as the observation sees them; strings are
// rendered only for the witnesses, ObsA/ObsB and Views. At one worker,
// over the whole domain, the report is CheckSoundness's, byte for byte.
func CheckSoundnessContext(ctx context.Context, m Mechanism, pol Policy, dom Domain, obs Observation, cc CheckConfig) (SoundnessReport, error) {
	rep := SoundnessReport{Mechanism: m.Name(), Policy: pol.Name(), Observation: obs.ObsName, Sound: true}
	if m.Arity() != pol.Arity() || len(dom) != m.Arity() {
		return rep, fmt.Errorf("core: arity mismatch: mechanism %d, policy %d, domain %d",
			m.Arity(), pol.Arity(), len(dom))
	}
	fk, err := newFoldKeys(pol, dom, obs, cc)
	if err != nil {
		return rep, err
	}

	// Each worker builds a class → first-seen outcome table and notes the
	// first conflict it sees; the merge then catches conflicts whose two
	// inputs were visited by different workers (classes span chunks
	// whenever the policy ignores part of the input).
	type shard struct {
		views                keyTable[keyedView]
		ids                  classIDs
		conflictA, conflictB keyedView
		checked              int
	}
	shards := make([]shard, cc.ResolvedWorkers(sweep.Size(dom)))
	for w := range shards {
		shards[w].views = newKeyTable[keyedView](fk)
	}
	err = sweepOutcomes(ctx, dom, cc, []Mechanism{m}, func(w int, input, last []int64, outs [][]Outcome) error {
		s := &shards[w]
		s.checked += len(outs[0])
		at0, key0 := fk.prefix(input)
		for lane := range outs[0] {
			at, key := fk.lane(at0, key0, last, lane)
			if fk.intern != nil {
				key = fk.interned(&s.ids, input, last, lane)
			}
			o := &outs[0][lane]
			e := s.views.at(key)
			if e.at == 0 {
				*e = keyedView{obs: *o, at: at + 1}
			} else if s.conflictA.at == 0 && !fk.same(&e.obs, o) {
				s.conflictA, s.conflictB = *e, keyedView{obs: *o, at: at + 1}
			}
		}
		return nil
	})
	if err != nil {
		return rep, err
	}

	// The nullary domain's witness is nil, as CheckSoundness's copy of
	// its empty input is.
	witness := func(e keyedView) []int64 {
		if len(dom) == 0 {
			return nil
		}
		return fk.input(e.at - 1)
	}
	conflict := func(a, b keyedView) {
		rep.Sound = false
		rep.WitnessA, rep.WitnessB = witness(a), witness(b)
		rep.ObsA, rep.ObsB = obs.Render(a.obs), obs.Render(b.obs)
	}
	merged := &shards[0].views
	for w := range shards {
		s := &shards[w]
		rep.Checked += s.checked
		if s.conflictA.at != 0 && rep.Sound {
			conflict(s.conflictA, s.conflictB)
		}
		if w == 0 {
			continue
		}
		s.views.each(func(key int, e *keyedView) {
			if e.at == 0 {
				return
			}
			prev := merged.at(fk.rekey(&shards[0].ids, &s.ids, key))
			if prev.at == 0 {
				*prev = *e
			} else if rep.Sound && !fk.same(&prev.obs, &e.obs) {
				conflict(*prev, *e)
			}
		})
	}
	if cc.CollectViews {
		rep.Views = make(map[string]ViewObs)
		merged.each(func(_ int, e *keyedView) {
			if e.at != 0 {
				in := witness(*e)
				rep.Views[pol.View(in)] = ViewObs{Obs: obs.Render(e.obs), Witness: in}
			}
		})
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
	err := sweepOutcomes(ctx, dom, cc, []Mechanism{m}, func(w int, _, _ []int64, outs [][]Outcome) error {
		for _, o := range outs[0] {
			if !o.Violation {
				counts[w]++
			}
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

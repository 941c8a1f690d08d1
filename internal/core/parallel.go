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
// captures and constant-suffix pruning (the ablation knob behind
// check.WithMemoStack(false), and the baseline the snapshot-stack
// benchmarks compare against); CollectViews marks the range as one shard
// of a larger run: the engines export their merged
// per-class evidence (SoundnessReport.Views; MaximalityReport.Classes and
// its Soundness.Views) so
// the shard verdict can be folded with its siblings by check.Merge.
// Batch is the stride width (the knob behind check.WithBatch): each
// worker hands every mechanism strides of up to Batch innermost-axis
// tuples, which compiled mechanisms execute in lockstep over
// structure-of-arrays register columns; ≤ 1 is the one-lane stride
// (check.Run passes check.DefaultBatch unless told otherwise). Each
// mechanism picks its runner on its own, so a
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

// keyedView is one policy class's soundness summary on integer keys: its
// least value index plus one (0 marks an empty slot) and the outcome
// there, and conflict, which indexes the worker's conflict list plus one
// (0 for none): the least value index in the class whose outcome the
// observation tells apart from the one at at.
type keyedView struct {
	obs      Outcome
	at       int
	conflict int
}

// keyedConflict is a class's least conflicting value index and its
// outcome.
type keyedConflict struct {
	at  int
	obs Outcome
}

// viewFold is the conflict list one sweep worker's soundness summaries
// point into, and the fold rule over both: the soundness engine keeps it
// beside its class table, the maximality engine beside the table whose
// entries also hold m's soundness summaries.
type viewFold struct {
	conflicts []keyedConflict
}

// viewShard is one sweep worker's soundness fold: a summary per class, the
// conflicts they point to, and the tuples it visited.
type viewShard struct {
	viewFold
	views   keyTable[keyedView]
	ids     classIDs
	checked int
	live    bool
}

// conflictAt returns the value index of e's conflict, noWitness for none.
func (s *viewFold) conflictAt(e *keyedView) int {
	if e.conflict == 0 {
		return noWitness
	}
	return s.conflicts[e.conflict-1].at
}

// setConflict makes (at, o) the conflict of e.
func (s *viewFold) setConflict(e *keyedView, at int, o *Outcome) {
	if e.conflict == 0 {
		s.conflicts = append(s.conflicts, keyedConflict{})
		e.conflict = len(s.conflicts)
	}
	s.conflicts[e.conflict-1] = keyedConflict{at: at, obs: *o}
}

// add folds the outcome o at value index at into the summary e. The
// summary does not depend on the order the indices arrive in: a lower
// index takes over as representative, and the old one, if the
// observation tells the two apart, is then the least conflict (every
// other index seen is above it).
func (s *viewFold) add(e *keyedView, at int, o *Outcome, fk *foldKeys) {
	switch {
	case e.at == 0:
		*e = keyedView{obs: *o, at: at + 1}
	case at+1 >= e.at:
		if at < s.conflictAt(e) && !fk.same(&e.obs, o) {
			s.setConflict(e, at, o)
		}
	default:
		old := *e
		e.obs, e.at = *o, at+1
		if !fk.same(&old.obs, o) {
			s.setConflict(e, old.at-1, &old.obs)
		}
	}
}

// merge folds the summary b, kept by from, into e. A summary stands for
// its class's tuples as far as the fold can tell: adding b's conflict and
// representative leaves e as adding every tuple b summarises would.
func (s *viewFold) merge(e *keyedView, from *viewFold, b *keyedView, fk *foldKeys) {
	s.add(e, b.at-1, &b.obs, fk)
	if b.conflict != 0 {
		c := &from.conflicts[b.conflict-1]
		s.add(e, c.at, &c.obs, fk)
	}
}

// report renders the merged fold's verdict into rep: the witness pair and
// observations of the class whose conflict is least, and with collect
// the Views table. each visits every summary of the merged table, empty
// ones included.
func (s *viewFold) report(rep *SoundnessReport, each func(func(e *keyedView)), pol Policy, obs Observation, fk *foldKeys, collect bool) {
	// The nullary domain's witness is nil, as CheckSoundness's copy of
	// its empty input is.
	witness := func(at int) []int64 {
		if len(fk.axes) == 0 {
			return nil
		}
		return fk.input(at)
	}
	var least keyedView
	each(func(e *keyedView) {
		if e.at != 0 && s.conflictAt(e) < s.conflictAt(&least) {
			least = *e
		}
	})
	if least.conflict != 0 {
		c := s.conflicts[least.conflict-1]
		rep.Sound = false
		rep.WitnessA, rep.WitnessB = witness(least.at-1), witness(c.at)
		rep.ObsA, rep.ObsB = obs.Render(least.obs), obs.Render(c.obs)
	}
	if collect {
		rep.Views = make(map[string]ViewObs)
		each(func(e *keyedView) {
			if e.at == 0 {
				return
			}
			in := witness(e.at - 1)
			v := ViewObs{Obs: obs.Render(e.obs), Witness: in}
			if e.conflict != 0 {
				c := s.conflicts[e.conflict-1]
				v.Conflict = &ViewConflict{Input: witness(c.at), Obs: obs.Render(c.obs)}
			}
			rep.Views[pol.View(in)] = v
		})
	}
}

// CheckSoundnessContext is the engine behind every parallel soundness
// verdict — check.Run dispatches here. Workers sweep chunks of the range
// and fold per-class summaries merged at the end. A class's
// representative is its least value index and its conflict the least
// value index in it the observation tells apart from the representative;
// the report's witness pair is the representative and conflict of the
// class whose conflict is least. The summaries do not depend on the order
// tuples arrive in, so neither does the verdict: it is the same, witnesses
// and ObsA/ObsB included, at any worker count, stride width or schedule,
// and on an ascending domain (every axis listed in increasing order) it is
// CheckSoundness's, whose first conflict in enumeration order is then the
// least. Cancelling ctx stops the sweep within one chunk and returns
// ctx's error with a partial report.
//
// The tables are keyed by integers (see foldKeys) and hold value indices
// and outcomes, compared as the observation sees them; strings are
// rendered only for the witnesses, ObsA/ObsB and Views. Per-worker tables
// are allocated on the worker's first stride.
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

	shards := make([]viewShard, cc.ResolvedWorkers(sweep.Size(dom)))
	err = sweepOutcomes(ctx, dom, cc, []Mechanism{m}, func(w int, input, last []int64, outs [][]Outcome) error {
		s := &shards[w]
		if !s.live {
			s.views, s.live = newKeyTable[keyedView](fk), true
		}
		s.checked += len(outs[0])
		at0, key0 := fk.prefix(input)
		for lane := range outs[0] {
			at, key := fk.lane(at0, key0, last, lane)
			if fk.intern != nil {
				key = fk.interned(&s.ids, input, last, lane)
			}
			s.add(s.views.at(key), at, &outs[0][lane], fk)
		}
		return nil
	})
	if err != nil {
		return rep, err
	}

	// Fold every worker's table into the first one's; classes span
	// workers whenever the policy ignores part of the input.
	merged := &shards[0]
	if !merged.live {
		merged.views = newKeyTable[keyedView](fk)
	}
	for w := range shards {
		s := &shards[w]
		rep.Checked += s.checked
		if w == 0 || !s.live {
			continue
		}
		s.views.each(func(key int, e *keyedView) {
			if e.at != 0 {
				merged.merge(merged.views.at(fk.rekey(&merged.ids, &s.ids, key)), &s.viewFold, e, fk)
			}
		})
	}

	merged.report(&rep, func(f func(*keyedView)) {
		merged.views.each(func(_ int, e *keyedView) { f(e) })
	}, pol, obs, fk, cc.CollectViews)
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

package check

import (
	"context"
	"fmt"
	"maps"

	"spm/internal/core"
	"spm/internal/sweep"
)

// DefaultCheckpointEvery is the segment size RunCheckpointed uses when the
// caller passes every ≤ 0: large enough that the per-segment fold and save
// are noise against the sweep, small enough that a crash loses at most a
// few hundred milliseconds of compiled-runner work.
const DefaultCheckpointEvery = 1 << 16

// Checkpoint is the durable state of a partially-swept RunCheckpointed: a
// cursor into the spec's index range and the evidence-preserving fold of
// every segment below it. It round-trips through encoding/json (Verdict
// carries full wire tags), which is how the persistent verdict store
// records it; a job resumed from a Checkpoint sweeps only the remaining
// [Cursor, span) suffix and folds it onto Partial.
//
// Partial handed to a save callback aliases RunCheckpointed's accumulator
// and is only valid for the duration of the call — serialize it (the
// store does) or deep-copy it before returning.
type Checkpoint struct {
	// Cursor counts the tuples of the range already folded into Partial,
	// relative to the range start. It always lands on a segment boundary,
	// so resuming reproduces the uninterrupted run's segmentation.
	Cursor int64 `json:"cursor"`
	// Partial is the folded evidence of [0, Cursor): a sharded Verdict
	// whose Views/Classes tables carry everything Merge needs to finish
	// the job without revisiting the prefix.
	Partial *Verdict `json:"partial,omitempty"`
}

// RunCheckpointed decides the same verdict as Run, but resumably: the
// spec's index range is cut into every-tuple segments, each segment runs
// as a sharded Run (evidence collection on), its partial verdict is folded
// into an accumulator, and save is called with the updated Checkpoint
// after each fold. A caller that persists every Checkpoint can crash at
// any point and resume by passing the last saved state as from: the prefix
// below from.Cursor is never re-swept.
//
// The final verdict matches Run's: for a whole-domain spec the folded
// evidence is rendered through Merge into a whole-domain verdict (Shard
// zero, evidence tables dropped); for a sharded spec the fold itself — a
// partial verdict over spec.Shard with its evidence tables — is returned,
// ready for a coordinator's Merge. Sound/maximal bits, Checked totals, and
// pass counts are identical to an unsegmented Run, and so are the
// witnesses: a whole-domain verdict is byte-identical to Run's, witness
// pairs, ObsA/ObsB, maximality witness and reason included, at any segment
// size and worker count, and a resumed run is byte-identical to an
// uninterrupted one.
//
// A save error aborts the run. Cancelling ctx stops the current segment
// within one chunk and returns ctx's error; the last saved Checkpoint
// remains the resumption point. A WithObserver hook sees every chunk of
// every segment, so its tuples sum to the part of the range this call
// swept.
func RunCheckpointed(ctx context.Context, spec Spec, from *Checkpoint, every int64, save func(Checkpoint) error, opts ...Option) (Verdict, error) {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	if spec.Shard.Offset < 0 || spec.Shard.Count < 0 {
		return Verdict{Kind: spec.Kind}, fmt.Errorf("%w: negative shard offset or count", ErrBadSpec)
	}
	size := sweep.Size(core.Domain(spec.Domain))
	lo, hi, err := (sweep.Config{Offset: clampInt(spec.Shard.Offset), Count: clampInt(spec.Shard.Count)}).Bounds(size)
	if err != nil {
		return Verdict{Kind: spec.Kind}, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	span := int64(hi - lo)

	var acc *Verdict
	var cur int64
	if from != nil {
		cur = from.Cursor
		if from.Partial != nil {
			// The fold below updates acc's tables in place; clone them once
			// so the caller's checkpoint stays untouched.
			cp := *from.Partial
			cp.Views, cp.Classes = maps.Clone(cp.Views), maps.Clone(cp.Classes)
			acc = &cp
		}
		if cur < 0 || cur > span {
			return Verdict{Kind: spec.Kind}, fmt.Errorf("%w: resume cursor %d outside range of %d tuples", ErrBadSpec, cur, span)
		}
		if cur > 0 && acc == nil {
			return Verdict{Kind: spec.Kind}, fmt.Errorf("%w: resume cursor %d without partial evidence", ErrBadSpec, cur)
		}
	}

	// Degenerate range: nothing to segment, and a sharded Run over an
	// empty range would produce no evidence to fold. Delegate to Run so
	// validation and the empty-domain conventions stay identical.
	if span == 0 {
		return Run(ctx, spec, opts...)
	}

	for cur < span {
		segLen := every - cur%every // stay on every-aligned boundaries after any resume cursor
		if cur+segLen > span {
			segLen = span - cur
		}
		seg := spec
		seg.Shard = Shard{Offset: int64(lo) + cur, Count: segLen}
		part, err := Run(ctx, seg, opts...)
		if err != nil {
			return part, err
		}
		if acc == nil {
			acc = &part
		} else if err := foldPartial(acc, part); err != nil {
			return *acc, err
		}
		cur += segLen
		if save != nil {
			if err := save(Checkpoint{Cursor: cur, Partial: acc}); err != nil {
				return *acc, fmt.Errorf("check: checkpoint save at cursor %d: %w", cur, err)
			}
		}
	}

	if !spec.Shard.IsZero() {
		// A sharded spec's answer is partial evidence by definition; hand
		// the fold — which spans exactly spec.Shard — to the coordinator,
		// with the local leak Run would report over the same shard (a
		// class may vary across segments without varying in any one).
		if acc.Kind == Maximality {
			acc.Witness, acc.Reason = core.LeastDeviation(acc.Classes, true)
			acc.Maximal = acc.Witness == nil
		}
		return *acc, nil
	}
	return Merge(*acc)
}

// foldPartial folds b — the partial verdict of the segment immediately
// following acc's range — into acc in place, preserving the evidence
// tables that Merge drops: acc stays a partial verdict over the combined
// range, so the fold can continue segment by segment with bounded state
// and no per-segment copy. It applies exactly Merge's cross-shard
// semantics (view summaries fold with core.MergeViewObs and the least
// conflict decides soundness, for Maximality too; class summaries fold
// with core.MergeClassSummaries), so Merge of the final fold equals Merge
// of all the segments.
func foldPartial(acc *Verdict, b Verdict) error {
	if b.Kind != acc.Kind {
		return fmt.Errorf("%w: mixed kinds %v and %v", ErrBadMerge, acc.Kind, b.Kind)
	}
	if b.Mechanism != acc.Mechanism || b.Program != acc.Program ||
		b.Policy != acc.Policy || b.Observation != acc.Observation {
		return fmt.Errorf("%w: parts describe different checks (%s/%s/%s/%s vs %s/%s/%s/%s)",
			ErrBadMerge, acc.Mechanism, acc.Program, acc.Policy, acc.Observation,
			b.Mechanism, b.Program, b.Policy, b.Observation)
	}
	if want := acc.Shard.Offset + acc.Shard.Count; b.Shard.Offset != want {
		return fmt.Errorf("%w: segment at offset %d does not extend fold ending at %d", ErrBadMerge, b.Shard.Offset, want)
	}
	acc.Checked += b.Checked
	acc.Shard.Count += b.Shard.Count
	switch acc.Kind {
	case Soundness:
		foldSoundness(acc, b)
	case Maximality:
		foldSoundness(acc, b)
		if !b.Maximal && (acc.Maximal || core.LessInput(b.Witness, acc.Witness)) {
			acc.Maximal = false
			acc.Witness, acc.Reason = b.Witness, b.Reason
		}
		if acc.Classes == nil {
			acc.Classes = make(map[string]core.ClassSummary, len(b.Classes))
		}
		for view, cs := range b.Classes {
			if prev, ok := acc.Classes[view]; ok {
				cs = core.MergeClassSummaries(prev, cs)
			}
			acc.Classes[view] = cs
		}
	case PassCount:
		acc.Passes += b.Passes
	default:
		return fmt.Errorf("%w: unknown kind %v", ErrBadMerge, acc.Kind)
	}
	return nil
}

// foldSoundness folds b's view table into acc's and renders acc's
// soundness fields from the result.
func foldSoundness(acc *Verdict, b Verdict) {
	before := *acc
	if acc.Views == nil {
		acc.Views = make(map[string]core.ViewObs, len(b.Views))
	}
	foldViews(acc.Views, b.Views)
	renderSoundness(acc, acc.Views, []Verdict{before, b})
}

// clampInt narrows an int64 shard bound to int, saturating rather than
// wrapping on 32-bit platforms; Run re-validates the exact bounds.
func clampInt(v int64) int {
	const maxInt = int(^uint(0) >> 1)
	if v > int64(maxInt) {
		return maxInt
	}
	return int(v)
}

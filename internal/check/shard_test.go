package check

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"spm/internal/core"
	"spm/internal/sweep"
)

// shardRun runs spec over nShards contiguous shards and merges the parts.
func shardRun(t *testing.T, spec Spec, nShards int, opts ...Option) Verdict {
	t.Helper()
	size := sweep.Size(spec.Domain)
	base, rem := size/nShards, size%nShards
	offset := int64(0)
	parts := make([]Verdict, 0, nShards)
	for i := 0; i < nShards; i++ {
		count := int64(base)
		if i < rem {
			count++
		}
		s := spec
		s.Shard = Shard{Offset: offset, Count: count}
		v, err := Run(context.Background(), s, opts...)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		parts = append(parts, v)
		offset += count
	}
	merged, err := Merge(parts...)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	return merged
}

func TestShardedSoundnessMergesToWholeVerdict(t *testing.T) {
	q, m, pol, dom := fixtures(t)
	for name, mech := range map[string]core.Mechanism{"instrumented": m, "bare": q} {
		whole, err := Run(context.Background(), Spec{Kind: Soundness, Mechanism: mech, Policy: pol, Domain: dom})
		if err != nil {
			t.Fatal(err)
		}
		for _, nShards := range []int{1, 2, 3, 5, 9} {
			merged := shardRun(t, Spec{Kind: Soundness, Mechanism: mech, Policy: pol, Domain: dom}, nShards, WithWorkers(2), WithChunk(1))
			if merged.Sound != whole.Sound || merged.Checked != whole.Checked {
				t.Errorf("%s %d shards: merged (sound=%v checked=%d) != whole (sound=%v checked=%d)",
					name, nShards, merged.Sound, merged.Checked, whole.Sound, whole.Checked)
			}
			// Witnesses included: both report the least conflict.
			if !reflect.DeepEqual(merged, whole) {
				t.Errorf("%s %d shards: merged verdict differs:\n  %+v\nvs\n  %+v", name, nShards, merged, whole)
			}
		}
	}
}

// TestCrossShardConflictOnly builds a mechanism whose soundness violation
// is invisible inside every shard — the two conflicting inputs land in
// different shards — so only the Views-table merge can catch it.
func TestCrossShardConflictOnly(t *testing.T) {
	// Output = x1; policy allows only x2. Views (x2 values) are constant
	// within each x1-slice, which is exactly how contiguous shards split a
	// 2-input grid: shard by x1. Every shard is internally sound; the
	// whole domain is not.
	leak := core.NewFunc("leak-x1", 2, func(in []int64) core.Outcome {
		return core.Outcome{Value: in[0], Steps: 1}
	})
	pol := core.NewAllow(2, 2)
	dom := core.Grid(2, 0, 1, 2)
	merged := shardRun(t, Spec{Kind: Soundness, Mechanism: leak, Policy: pol, Domain: dom}, 3)
	if merged.Sound {
		t.Fatalf("cross-shard conflict not detected: %+v", merged)
	}
	whole, err := Run(context.Background(), Spec{Kind: Soundness, Mechanism: leak, Policy: pol, Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, whole) {
		t.Fatalf("merged verdict differs from the whole-domain one:\n  %+v\nvs\n  %+v", merged, whole)
	}
	// Sanity: each shard alone is sound, so the conflict really is
	// cross-shard.
	for i := int64(0); i < 3; i++ {
		v, err := Run(context.Background(), Spec{
			Kind: Soundness, Mechanism: leak, Policy: pol, Domain: dom,
			Shard: Shard{Offset: i * 3, Count: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !v.Sound {
			t.Fatalf("shard %d unexpectedly unsound on its own", i)
		}
	}
}

func TestShardedMaximalityMergesToWholeVerdict(t *testing.T) {
	q, m, pol, dom := fixtures(t)
	mechs := map[string]core.Mechanism{
		"instrumented": m,               // maximal for this fixture
		"null":         core.NewNull(2), // withholds on constant classes
		"bare":         q,               // leaks on varying classes
	}
	for name, mech := range mechs {
		whole, err := Run(context.Background(), Spec{Kind: Maximality, Mechanism: mech, Program: q, Policy: pol, Domain: dom})
		if err != nil {
			t.Fatal(err)
		}
		for _, nShards := range []int{1, 2, 4, 9} {
			merged := shardRun(t, Spec{Kind: Maximality, Mechanism: mech, Program: q, Policy: pol, Domain: dom}, nShards)
			if merged.Maximal != whole.Maximal || merged.Checked != whole.Checked {
				t.Errorf("%s %d shards: merged (maximal=%v checked=%d) != whole (maximal=%v checked=%d)",
					name, nShards, merged.Maximal, merged.Checked, whole.Maximal, whole.Checked)
			}
			if merged.Reason != whole.Reason {
				t.Errorf("%s %d shards: merged reason %q != whole reason %q", name, nShards, merged.Reason, whole.Reason)
			}
			// Witnesses included: both render the least deviating input.
			if !reflect.DeepEqual(merged, whole) {
				t.Errorf("%s %d shards: merged verdict differs:\n  %+v\nvs\n  %+v", name, nShards, merged, whole)
			}
		}
	}
}

func TestShardedPassCountSums(t *testing.T) {
	_, m, _, dom := fixtures(t)
	whole, err := Run(context.Background(), Spec{Kind: PassCount, Mechanism: m, Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	merged := shardRun(t, Spec{Kind: PassCount, Mechanism: m, Domain: dom}, 4)
	if merged.Passes != whole.Passes || merged.Checked != whole.Checked {
		t.Fatalf("merged (passes=%d checked=%d) != whole (passes=%d checked=%d)",
			merged.Passes, merged.Checked, whole.Passes, whole.Checked)
	}
}

func TestShardedRunPopulatesEvidence(t *testing.T) {
	q, m, pol, dom := fixtures(t)
	v, err := Run(context.Background(), Spec{
		Kind: Soundness, Mechanism: m, Policy: pol, Domain: dom,
		Shard: Shard{Offset: 0, Count: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Checked != 4 || len(v.Views) == 0 || v.Shard.IsZero() {
		t.Fatalf("sharded soundness verdict lacks evidence: %+v", v)
	}
	mv, err := Run(context.Background(), Spec{
		Kind: Maximality, Mechanism: m, Program: q, Policy: pol, Domain: dom,
		Shard: Shard{Offset: 3, Count: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mv.Checked != 3 || len(mv.Classes) == 0 {
		t.Fatalf("sharded maximality verdict lacks evidence: %+v", mv)
	}
	// Whole-domain runs stay evidence-free: the wire format only pays for
	// the tables when a merge will need them.
	whole, err := Run(context.Background(), Spec{Kind: Soundness, Mechanism: m, Policy: pol, Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	if whole.Views != nil || !whole.Shard.IsZero() {
		t.Fatalf("whole verdict unexpectedly carries shard evidence: %+v", whole)
	}
}

func TestShardedRunRejectsNegativeShard(t *testing.T) {
	_, m, pol, dom := fixtures(t)
	for _, sh := range []Shard{{Offset: -1}, {Count: -2}} {
		_, err := Run(context.Background(), Spec{Kind: Soundness, Mechanism: m, Policy: pol, Domain: dom, Shard: sh})
		if !errors.Is(err, ErrBadSpec) {
			t.Fatalf("shard %+v: err = %v, want ErrBadSpec", sh, err)
		}
	}
}

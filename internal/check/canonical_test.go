package check

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"spm/internal/core"
	"spm/internal/lattice"
)

// FuzzSoundnessCanonical builds a soundness question from the fuzz bytes —
// a domain whose axes may be gapped, descending or carry repeated values,
// an Allow, Integrity or Content policy, a table-driven mechanism that may
// leak, an observation, shard cuts and a segment size — and requires one
// verdict, witness pair and ObsA/ObsB included, from Run at 1–4 workers
// and widths 1 and 16, from a 3-way shard split folded by Merge, and from
// RunCheckpointed interrupted and resumed from its JSON checkpoint. On a
// domain whose axes all ascend it must be CheckSoundness's report.
func FuzzSoundnessCanonical(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 3, 1, 2, 0, 5, 1, 9, 2, 1, 0, 1, 3, 7})
	f.Add([]byte{2, 3, 2, 2, 2, 2, 0, 3, 7, 3, 1, 4, 1, 1, 0, 5})
	f.Add([]byte{3, 3, 3, 0, 1, 2, 3, 4, 1, 2, 2, 5, 0, 1, 2, 2, 9, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("1120001")) // a descending axis: later shards hold lesser inputs
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		k := in.next() % 4
		dom := make(core.Domain, k)
		ascending := true
		for i := range dom {
			n := 1 + in.next()%4
			shape := in.next() % 4
			start := int64(in.next()%7) - 3
			for j := range n {
				var v int64
				switch shape {
				case 0: // contiguous ascending
					v = start + int64(j)
				case 1: // gapped ascending
					v = start + int64(j*j) + int64(j)
				case 2: // descending
					v = start - int64(j)
				default: // arbitrary, repeats allowed
					v = int64(in.next()%5) - 2
				}
				dom[i] = append(dom[i], v)
			}
			ascending = ascending && slices.IsSorted(dom[i]) && len(slices.Compact(slices.Clone(dom[i]))) == n
		}
		var allowed []int
		mask := in.next()
		for i := 1; i <= k; i++ {
			if mask&(1<<(i-1)) != 0 {
				allowed = append(allowed, i)
			}
		}
		var pol core.Policy
		switch in.next() % 3 {
		case 0:
			pol = core.NewAllow(k, allowed...)
		case 1:
			pol = core.NewIntegrity(k, allowed...)
		default:
			pol = stringRoute(Spec{Policy: core.NewAllow(k, allowed...)}).Policy
		}
		deps := lattice.NewIndexSet(allowed...)
		if in.next()%2 == 1 {
			deps = lattice.AllInputs(k)
		}
		m := tableMech("m", k, deps, int64(in.next()), in.next()%2 == 1)
		obs := observations[in.next()%len(observations)]
		spec := Spec{Kind: Soundness, Mechanism: m, Policy: pol, Domain: dom, Observation: obs}
		size := int64(dom.Size())
		every := 1 + int64(in.next())%size

		ctx := context.Background()
		ref, err := Run(ctx, spec, WithWorkers(1), WithBatch(1))
		if err != nil {
			t.Fatal(err)
		}
		same := func(how string, got Verdict) {
			t.Helper()
			if !reflect.DeepEqual(got, ref) || jsonOf(t, got) != jsonOf(t, ref) {
				t.Fatalf("%s:\n  %s\nwant\n  %s", how, jsonOf(t, got), jsonOf(t, ref))
			}
		}
		if ascending {
			want, err := core.CheckSoundness(m, pol, dom, obs)
			if err != nil {
				t.Fatal(err)
			}
			if got := ref.SoundnessReport(); !reflect.DeepEqual(got, want) {
				t.Fatalf("one worker %+v, CheckSoundness %+v", got, want)
			}
		}
		for workers := 1; workers <= 4; workers++ {
			for _, width := range []int{1, 16, 64} {
				opts := []Option{WithWorkers(workers), WithBatch(width), WithChunk(1 + in.next()%3)}
				how := fmt.Sprintf("workers=%d width=%d", workers, width)
				got, err := Run(ctx, spec, opts...)
				if err != nil {
					t.Fatal(err)
				}
				same("Run "+how, got)

				var parts []Verdict
				for i := int64(0); i < 3; i++ {
					s := spec
					s.Shard = Shard{Offset: size * i / 3, Count: size*(i+1)/3 - size*i/3}
					if s.Shard.Count == 0 {
						continue
					}
					v, err := Run(ctx, s, opts...)
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, v)
				}
				if len(parts) > 0 {
					merged, err := Merge(parts...)
					if err != nil {
						t.Fatal(err)
					}
					same("3 shards + Merge "+how, merged)
				}

				same(fmt.Sprintf("RunCheckpointed every=%d %s", every, how), resumed(t, spec, every, opts...))
			}
		}
	})
}

// resumed runs spec checkpointed, stops it after its first checkpoint,
// round-trips that checkpoint through JSON as the store does, and resumes
// from it, returning the final verdict.
func resumed(t *testing.T, spec Spec, every int64, opts ...Option) Verdict {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var saved []byte
	v, err := RunCheckpointed(ctx, spec, nil, every, func(ck Checkpoint) error {
		if saved == nil {
			var err error
			saved, err = json.Marshal(ck)
			cancel()
			return err
		}
		return nil
	}, opts...)
	if err == nil {
		return v // a single segment: finished before the cancel could land
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(saved, &ck); err != nil {
		t.Fatal(err)
	}
	v, err = RunCheckpointed(context.Background(), spec, &ck, every, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

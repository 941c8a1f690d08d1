package check

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"spm/internal/core"
	"spm/internal/lattice"
	"spm/internal/progen"
	"spm/internal/surveillance"
)

// soundPart is the soundness verdict a Maximality verdict carries: its
// soundness fields, in the shape a Soundness Run over the same range
// returns.
func soundPart(v Verdict) Verdict {
	return Verdict{
		Kind:        Soundness,
		Mechanism:   v.Mechanism,
		Policy:      v.Policy,
		Observation: v.Observation,
		Checked:     v.Checked,
		Sound:       v.Sound,
		WitnessA:    v.WitnessA,
		WitnessB:    v.WitnessB,
		ObsA:        v.ObsA,
		ObsB:        v.ObsB,
		Shard:       v.Shard,
		Views:       v.Views,
	}
}

// checkSoundPart requires every execution of the Maximality spec to carry,
// byte for byte, the soundness verdict a Soundness Run of its mechanism
// gives over the same range: at 1, 2 and 4 workers and widths 1, 8 and
// 64, per part of a 3-way shard split and after Merge, and from
// RunCheckpointed resumed mid-run. On a domain whose axes all ascend it
// must also be CheckSoundness's report. chunk picks each run's chunk.
func checkSoundPart(t *testing.T, tag string, spec Spec, asc bool, chunk func() int) {
	t.Helper()
	ctx := context.Background()
	sspec := spec
	sspec.Kind, sspec.Program = Soundness, nil
	want, err := Run(ctx, sspec, WithWorkers(1))
	if err != nil {
		t.Fatalf("%s: soundness Run: %v", tag, err)
	}
	same := func(how string, got, want Verdict) {
		t.Helper()
		if got := soundPart(got); !reflect.DeepEqual(got, want) || jsonOf(t, got) != jsonOf(t, want) {
			t.Fatalf("%s: %s: maximality's soundness part\n  %s\nwant\n  %s", tag, how, jsonOf(t, got), jsonOf(t, want))
		}
	}
	if asc {
		seq, err := core.CheckSoundness(spec.Mechanism, spec.Policy, spec.Domain, spec.Observation)
		if err != nil {
			t.Fatal(err)
		}
		if got := want.SoundnessReport(); !reflect.DeepEqual(got, seq) {
			t.Fatalf("%s: Run %+v, CheckSoundness %+v", tag, got, seq)
		}
	}
	size := int64(spec.Domain.Size())
	for _, workers := range []int{1, 2, 4} {
		for _, width := range []int{1, 8, 64} {
			opts := []Option{WithWorkers(workers), WithBatch(width), WithChunk(chunk())}
			how := fmt.Sprintf("workers=%d width=%d", workers, width)
			got, err := Run(ctx, spec, opts...)
			if err != nil {
				t.Fatal(err)
			}
			same("Run "+how, got, want)

			var parts []Verdict
			for i := int64(0); i < 3; i++ {
				s, ss := spec, sspec
				s.Shard = Shard{Offset: size * i / 3, Count: size*(i+1)/3 - size*i/3}
				if s.Shard.Count == 0 {
					continue
				}
				ss.Shard = s.Shard
				v, err := Run(ctx, s, opts...)
				if err != nil {
					t.Fatal(err)
				}
				sv, err := Run(ctx, ss, opts...)
				if err != nil {
					t.Fatal(err)
				}
				same(fmt.Sprintf("shard %+v %s", s.Shard, how), v, sv)
				parts = append(parts, v)
			}
			if len(parts) > 0 {
				merged, err := Merge(parts...)
				if err != nil {
					t.Fatal(err)
				}
				same("3 shards + Merge "+how, merged, want)
			}
			every := max(1, size/3)
			same(fmt.Sprintf("RunCheckpointed every=%d resumed %s", every, how), resumed(t, spec, every, opts...), want)
		}
	}
}

// TestMaximalitySoundPartProgen is the one-pass maximality differential:
// on randomized total programs Q, the Maximality verdict of Q itself, of a
// gate on the allowed inputs, of Q's surveillance-instrumented mechanism
// and of its Theorem 2 maximal mechanism carries the soundness verdict a
// separate Soundness Run gives, on ascending and descending domains.
func TestMaximalitySoundPartProgen(t *testing.T) {
	up := []int64{-2, -1, 0, 1, 2}
	down := slices.Clone(up)
	slices.Reverse(down)
	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(3000 + seed))
		arity := 2 + int(seed)%2
		p := progen.Generate(r, progen.DefaultConfig(arity))
		q := core.FromProgram(p)
		allowed := lattice.NewIndexSet(arity)
		if seed%3 == 0 {
			allowed = lattice.NewIndexSet(1)
		}
		pol := core.NewAllowSet(arity, allowed)
		asc := seed%4 != 1
		dom := make(core.Domain, arity)
		for i := range dom {
			dom[i] = up
			if !asc && i == 0 {
				dom[i] = down
			}
		}
		instr, err := surveillance.Mechanism(p, allowed, surveillance.Untimed)
		if err != nil {
			t.Fatal(err)
		}
		maximal, err := core.Maximal(q, pol, dom, core.ObserveValue)
		if err != nil {
			t.Fatal(err)
		}
		chunk := 0
		for _, m := range []core.Mechanism{q, gate(q, allowed, seed), instr, maximal} {
			spec := Spec{Kind: Maximality, Mechanism: m, Program: q, Policy: pol, Domain: dom, Observation: core.ObserveValue}
			checkSoundPart(t, p.Name+"/"+m.Name(), spec, asc, func() int { chunk++; return 1 + chunk%5 })
		}
	}
}

// FuzzMaximalitySoundPart builds a maximality question from the fuzz bytes
// — a domain whose axes may be gapped, descending or carry repeated
// values, an Allow, Integrity or Content policy, a table-driven Q, a
// mechanism for it (Q, a gate, a noisy table or Q's Theorem 2 maximal
// mechanism) and an observation — and requires its soundness part to be
// the Soundness verdict across workers, widths, shards and resume, and
// CheckSoundness's on ascending domains.
func FuzzMaximalitySoundPart(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 3, 1, 2, 0, 5, 1, 9, 2, 1, 0, 1, 3, 7})
	f.Add([]byte{2, 3, 2, 2, 2, 2, 0, 3, 7, 3, 1, 4, 1, 1, 0, 5})
	f.Add([]byte{3, 3, 3, 0, 1, 2, 3, 4, 1, 2, 2, 5, 0, 1, 2, 2, 9, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte("1120001"))
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		k := in.next() % 4
		dom := make(core.Domain, k)
		asc := true
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
			asc = asc && slices.IsSorted(dom[i]) && len(slices.Compact(slices.Clone(dom[i]))) == n
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
		set := lattice.NewIndexSet(allowed...)
		deps := set
		if in.next()%2 == 1 {
			deps = lattice.AllInputs(k)
		}
		q := tableMech("q", k, deps, int64(in.next()), false)
		obs := observations[in.next()%len(observations)]
		var m core.Mechanism
		switch in.next() % 4 {
		case 0:
			m = q
		case 1:
			m = gate(q, set, int64(in.next()))
		case 2:
			m = tableMech("m", k, deps, int64(in.next()), true)
		default:
			mm, err := core.Maximal(q, pol, dom, obs)
			if err != nil {
				t.Fatal(err)
			}
			m = mm
		}
		spec := Spec{Kind: Maximality, Mechanism: m, Program: q, Policy: pol, Domain: dom, Observation: obs}
		checkSoundPart(t, "fuzz", spec, asc, func() int { return 1 + in.next()%3 })
	})
}

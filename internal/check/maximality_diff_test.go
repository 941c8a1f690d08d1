package check

import (
	"context"
	"encoding/json"
	"errors"
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

// maxCase is one maximality question for the differential harness.
type maxCase struct {
	name string
	spec Spec
	// want, when set, pins the expected witness and reason.
	want *Verdict
}

// withholdAt returns Q(x1,x2) = x1 and an m that passes Q everywhere
// except at x1 ∈ at, where it issues Λ. Under allow(1) every class is
// Q-constant, so each withheld input is a ReasonWithholds deviation.
func withholdAt(at ...int64) (q, m core.Mechanism) {
	q = core.NewFunc("x1", 2, func(in []int64) core.Outcome {
		return core.Outcome{Value: in[0], Steps: 1}
	})
	m = core.NewFunc("gate", 2, func(in []int64) core.Outcome {
		for _, v := range at {
			if in[0] == v {
				return core.Outcome{Violation: true, Notice: "gate", Steps: 1}
			}
		}
		return core.Outcome{Value: in[0], Steps: 1}
	})
	return q, m
}

func maximalityCases(t *testing.T) []maxCase {
	t.Helper()
	var cases []maxCase

	// Sorted view strings put class "10" before class "2"; the verdict
	// must still name the least deviating input.
	q, m := withholdAt(2, 10)
	cases = append(cases, maxCase{
		name: "withhold-2-and-10",
		spec: Spec{Kind: Maximality, Mechanism: m, Program: q, Policy: core.NewAllow(2, 1),
			Domain: core.Domain{core.Range(0, 11), {0, 1}}},
		want: &Verdict{Witness: []int64{2, 0}, Reason: core.ReasonWithholds},
	})

	// Descending axes: enumeration order is the reverse of value order.
	q, m = withholdAt(1, 4)
	cases = append(cases, maxCase{
		name: "descending",
		spec: Spec{Kind: Maximality, Mechanism: m, Program: q, Policy: core.NewAllow(2, 1),
			Domain: core.Domain{{5, 4, 3, 2, 1, 0}, {1, 0}}},
		want: &Verdict{Witness: []int64{1, 0}, Reason: core.ReasonWithholds},
	})

	// The three reasons, Q(x1,x2) = x2 under allow(2) unless noted.
	x2 := core.NewFunc("x2", 2, func(in []int64) core.Outcome { return core.Outcome{Value: in[1], Steps: 1} })
	x1 := core.NewFunc("x1", 2, func(in []int64) core.Outcome { return core.Outcome{Value: in[0], Steps: 1} })
	wrong := core.NewFunc("x2+1", 2, func(in []int64) core.Outcome { return core.Outcome{Value: in[1] + 1, Steps: 1} })
	dom := core.Grid(2, 3, 2, 1, 0)
	pol := core.NewAllow(2, 2)
	for _, c := range []struct {
		name    string
		m, q    core.Mechanism
		witness []int64
		reason  string
	}{
		{"withholds", core.NewNull(2), x2, []int64{0, 0}, core.ReasonWithholds},
		{"leaks", x1, x1, []int64{0, 0}, core.ReasonLeaks},
		{"alters", wrong, x2, []int64{0, 0}, core.ReasonAlters},
		{"maximal", x2, x2, nil, ""},
	} {
		cases = append(cases, maxCase{
			name: "reason-" + c.name,
			spec: Spec{Kind: Maximality, Mechanism: c.m, Program: c.q, Policy: pol, Domain: dom},
			want: &Verdict{Witness: c.witness, Reason: c.reason},
		})
	}

	// Progen programs, bare and instrumented, against the bare reference.
	r := rand.New(rand.NewSource(16))
	cfg := progen.DefaultConfig(2)
	for i := 0; i < 8; i++ {
		prog := progen.Generate(r, cfg)
		allowed := lattice.NewIndexSet()
		if i%2 == 1 {
			allowed = lattice.NewIndexSet(2)
		}
		bare := core.FromProgram(prog)
		instr, err := surveillance.Mechanism(prog, allowed, surveillance.Untimed)
		if err != nil {
			t.Fatalf("progen %d: instrument: %v", i, err)
		}
		for name, mech := range map[string]core.Mechanism{"bare": bare, "instrumented": instr} {
			cases = append(cases, maxCase{
				name: fmt.Sprintf("progen-%d-%s", i, name),
				spec: Spec{Kind: Maximality, Mechanism: mech, Program: bare,
					Policy: core.NewAllowSet(2, allowed), Domain: core.Grid(2, 0, 1, 2, 3, 4)},
			})
		}
	}
	return cases
}

// resumeMid interrupts a checkpointed run after its first save, round-trips
// that checkpoint through JSON (the store's representation), and resumes.
func resumeMid(t *testing.T, spec Spec, every int64, opts ...Option) Verdict {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var saved []byte
	_, err := RunCheckpointed(ctx, spec, nil, every, func(ck Checkpoint) error {
		if saved == nil {
			data, err := json.Marshal(ck)
			if err != nil {
				return err
			}
			saved = data
			cancel()
		}
		return nil
	}, opts...)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled", err)
	}
	var ck Checkpoint
	if err := json.Unmarshal(saved, &ck); err != nil {
		t.Fatal(err)
	}
	v, err := RunCheckpointed(context.Background(), spec, &ck, every, nil, opts...)
	if err != nil {
		t.Fatalf("resume from cursor %d: %v", ck.Cursor, err)
	}
	return v
}

// TestMaximalityVerdictIndependentOfExecution is the differential harness
// behind the maximality contract: whole-domain Run at several worker
// counts, RunCheckpointed at several segment sizes (and resumed from a
// mid-run checkpoint), and shard splits folded by Merge all return the
// same verdict, witness and reason included.
func TestMaximalityVerdictIndependentOfExecution(t *testing.T) {
	for _, c := range maximalityCases(t) {
		t.Run(c.name, func(t *testing.T) {
			ref, err := Run(context.Background(), c.spec, WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			if c.want != nil && (!reflect.DeepEqual(ref.Witness, c.want.Witness) || ref.Reason != c.want.Reason) {
				t.Fatalf("verdict at %v (%q), want %v (%q)", ref.Witness, ref.Reason, c.want.Witness, c.want.Reason)
			}
			check := func(how string, got Verdict) {
				t.Helper()
				if !reflect.DeepEqual(got, ref) {
					t.Errorf("%s:\n  %+v\nwant\n  %+v", how, got, ref)
				}
			}
			for _, w := range []int{1, 2, 4} {
				v, err := Run(context.Background(), c.spec, WithWorkers(w), WithChunk(1))
				if err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("Run workers=%d", w), v)
			}
			size := int64(c.spec.Domain.Size())
			for _, every := range []int64{1, 7, DefaultCheckpointEvery} {
				check(fmt.Sprintf("RunCheckpointed every=%d", every), ckRun(t, c.spec, every, WithWorkers(2), WithChunk(1)))
			}
			check("RunCheckpointed resumed", resumeMid(t, c.spec, max(1, size/3), WithWorkers(2), WithChunk(1)))
			for _, n := range []int{2, 3, 5} {
				check(fmt.Sprintf("%d shards + Merge", n), shardRun(t, c.spec, n, WithWorkers(2), WithChunk(1)))
			}
		})
	}
}

// TestMaximalityMatchesSequentialOracle: over a domain whose axes are
// listed in ascending order the least deviating input is also the first
// one in enumeration order, so the engine's witness — on any listing of
// the same tuples — is the sequential checker's.
func TestMaximalityMatchesSequentialOracle(t *testing.T) {
	for _, c := range maximalityCases(t) {
		v, err := Run(context.Background(), c.spec, WithWorkers(4), WithChunk(1))
		if err != nil {
			t.Fatal(err)
		}
		seq, err := core.CheckMaximality(c.spec.Mechanism, c.spec.Program, c.spec.Policy, ascending(c.spec.Domain), core.ObserveValue)
		if err != nil {
			t.Fatal(err)
		}
		if v.Maximal != seq.Maximal || v.Checked != seq.Checked || v.Reason != seq.Reason || !reflect.DeepEqual(v.Witness, seq.Witness) {
			t.Errorf("%s: engine %s, sequential %s", c.name, v, seq)
		}
	}
}

// ascending returns dom with every axis sorted: the same tuples, listed
// in value order.
func ascending(dom core.Domain) core.Domain {
	out := make(core.Domain, len(dom))
	for i, vs := range dom {
		out[i] = slices.Sorted(slices.Values(vs))
	}
	return out
}

// fuzzBytes hands out fuzz input one byte at a time, zero once exhausted.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzMaximalitySplit builds a maximality question from the fuzz bytes —
// a domain with ascending or descending axes, an allow policy, a
// table-driven program Q and mechanism m (sometimes Q's Theorem 2 maximal
// mechanism), shard split points, a segment size and a worker count — and
// requires whole-domain Run, RunCheckpointed and shards + Merge to return
// byte-identical verdicts.
func FuzzMaximalitySplit(f *testing.F) {
	f.Add([]byte{1, 3, 0, 1, 2, 3, 1, 1, 9, 8, 7, 6, 5, 4, 3, 2, 1, 2, 3, 4, 5, 6, 7, 8, 3, 11, 2, 3})
	f.Add([]byte{2, 2, 4, 255, 3, 1, 2, 2, 6, 0, 10, 20, 30, 40, 50, 60, 70, 80, 0, 0, 0, 0, 0, 0, 0, 0, 4, 5, 9, 1, 2})
	f.Add([]byte{0, 0, 1, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		k := 1 + in.next()%3
		dom := make(core.Domain, k)
		for i := range dom {
			n := 1 + in.next()%4
			start, step := int64(in.next()%5)-2, int64(1+in.next()%2)
			if in.next()%2 == 1 {
				step = -step
			}
			for j := range n {
				dom[i] = append(dom[i], start+int64(j)*step)
			}
		}
		var allowed []int
		mask := in.next()
		for i := 1; i <= k; i++ {
			if mask&(1<<(i-1)) != 0 {
				allowed = append(allowed, i)
			}
		}
		pol := core.NewAllow(k, allowed...)
		var qtab, mtab [8]int
		for i := range qtab {
			qtab[i], mtab[i] = in.next(), in.next()
		}
		slot := func(x []int64, salt int64) int {
			h := salt
			for i, v := range x {
				h = h*31 + (v+7)*int64(i+2)
			}
			return int(((h % 8) + 8) % 8)
		}
		qrun := func(x []int64) core.Outcome {
			v := qtab[slot(x, 1)]
			if v%5 == 0 {
				return core.Outcome{Violation: true, Notice: "q", Steps: 1}
			}
			return core.Outcome{Value: int64(v % 3), Steps: 1}
		}
		q := core.NewFunc("q", k, qrun)
		var m core.Mechanism = core.NewFunc("m", k, func(x []int64) core.Outcome {
			o := qrun(x)
			switch mtab[slot(x, 2)] % 4 {
			case 2:
				return core.Outcome{Violation: true, Notice: "m", Steps: 1}
			case 3:
				return core.Outcome{Value: o.Value + 1, Steps: 1}
			}
			return o
		})
		if in.next()%3 == 0 {
			mm, err := core.Maximal(q, pol, dom, core.ObserveValue)
			if err != nil {
				t.Fatal(err)
			}
			m = mm
		}
		size := int64(dom.Size())
		var cuts []int64
		for range 1 + in.next()%4 {
			cuts = append(cuts, int64(in.next())%(size+1))
		}
		cuts = append(cuts, 0, size)
		slices.Sort(cuts)
		cuts = slices.Compact(cuts)
		every := 1 + int64(in.next())%size
		opts := []Option{WithWorkers(1 + in.next()%4), WithChunk(1 + in.next()%3)}

		spec := Spec{Kind: Maximality, Mechanism: m, Program: q, Policy: pol, Domain: dom}
		ref, err := Run(context.Background(), spec, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		got, err := Run(context.Background(), spec, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("Run %+v differs from one worker's %+v", got, ref)
		}
		if got := ckRun(t, spec, every, opts...); !reflect.DeepEqual(got, ref) {
			t.Fatalf("RunCheckpointed every=%d: %+v, want %+v", every, got, ref)
		}
		var parts []Verdict
		for i := 1; i < len(cuts); i++ {
			s := spec
			s.Shard = Shard{Offset: cuts[i-1], Count: cuts[i] - cuts[i-1]}
			v, err := Run(context.Background(), s, opts...)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, v)
		}
		merged, err := Merge(parts...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(merged, ref) {
			t.Fatalf("Merge over cuts %v: %+v, want %+v", cuts, merged, ref)
		}
	})
}

package check

import (
	"context"
	"encoding/json"
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

// The parallel engines run one fold. An Allow or Integrity policy keys its
// classes by view key, any other policy by ids interned from its rendered
// views; a built-in observation compares outcomes field by field, any
// other observation by rendering. The tests here put each question
// through both routes and require byte-identical verdicts, and the
// sequential oracles' verdicts too, at every worker count.

// stringRoute returns the same question on the string route: the policy
// as a Content policy with the same name and view, so its classes are
// interned from rendered views, and the observation without its
// visibility, so outcomes are compared by rendering.
func stringRoute(spec Spec) Spec {
	pol := spec.Policy
	spec.Policy = core.NewContent(pol.Name(), pol.Arity(), pol.View)
	spec.Observation = core.Observation{ObsName: spec.Observation.ObsName, Render: spec.Observation.Render}
	return spec
}

// observations is every built-in observation.
var observations = []core.Observation{
	core.ObserveValue,
	core.ObserveValueAndTime,
	core.CoarseNotices(core.ObserveValue),
	core.CoarseNotices(core.ObserveValueAndTime),
}

// tableMech is a table-driven mechanism of arity k. Whether it violates,
// and its value, hash the coordinates in deps; its notice text and step
// count hash every coordinate when noisy is set (a leak only a strict or
// timed observation sees) and deps otherwise. With deps inside the
// allowed set and noisy unset it is sound under every observation.
func tableMech(name string, k int, deps lattice.IndexSet, salt int64, noisy bool) core.Mechanism {
	hash := func(in []int64, set lattice.IndexSet) int64 {
		h := salt
		for i, v := range in {
			if set.Contains(i + 1) {
				h = h*131 + (v+11)*int64(2*i+3)
			}
		}
		return (h%97 + 97) % 97
	}
	return core.NewFunc(name, k, func(in []int64) core.Outcome {
		h := hash(in, deps)
		side := h
		if noisy {
			side = hash(in, lattice.AllInputs(k))
		}
		if h%4 == 0 {
			return core.Outcome{Violation: true, Notice: []string{"a", "b"}[side%2], Steps: 1 + side%3}
		}
		return core.Outcome{Value: h % 5, Steps: 1 + side%3}
	})
}

// gate passes q's outcome where a hash of the coordinates in deps allows
// it and issues a violation notice elsewhere.
func gate(q core.Mechanism, deps lattice.IndexSet, salt int64) core.Mechanism {
	k := q.Arity()
	open := tableMech("open", k, deps, salt, false)
	return core.NewFunc("gate("+q.Name()+")", k, func(in []int64) core.Outcome {
		if o, _ := open.Run(in); o.Value%3 == 0 {
			return core.Outcome{Violation: true, Notice: "gate", Steps: 1}
		}
		o, _ := q.Run(in)
		return o
	})
}

// foldQuestions returns soundness and maximality questions about m and q
// under pol over dom for every built-in observation: m against pol, and
// against Q the mechanisms q itself, a gate on the allowed inputs, and
// the Theorem 2 maximal mechanism.
func foldQuestions(t testing.TB, m, q core.Mechanism, pol core.Policy, allowed lattice.IndexSet, dom core.Domain) []Spec {
	var specs []Spec
	for _, obs := range observations {
		specs = append(specs, Spec{Kind: Soundness, Mechanism: m, Policy: pol, Domain: dom, Observation: obs})
		maximal, err := core.Maximal(q, pol, dom, obs)
		if err != nil {
			t.Fatal(err)
		}
		for _, mm := range []core.Mechanism{q, gate(q, allowed, 5), maximal} {
			specs = append(specs, Spec{Kind: Maximality, Mechanism: mm, Program: q, Policy: pol, Domain: dom, Observation: obs})
		}
	}
	return specs
}

// jsonOf is the verdict's wire form.
func jsonOf(t testing.TB, v Verdict) string {
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// sortedDomain returns dom with each axis sorted and de-duplicated.
func sortedDomain(dom core.Domain) core.Domain {
	out := make(core.Domain, len(dom))
	for i, vs := range dom {
		out[i] = slices.Compact(slices.Sorted(slices.Values(vs)))
	}
	return out
}

// matchOracle requires a whole-domain verdict to be the sequential
// oracle's on the domain with each axis sorted and de-duplicated, where
// the oracle's first counterexample in enumeration order is the least:
// CheckSoundness's report byte for byte, and CheckMaximality's Maximal,
// Witness and Reason; Checked is the oracle's on the domain itself.
func matchOracle(t testing.TB, how string, spec Spec, got Verdict) {
	switch spec.Kind {
	case Soundness:
		want, err := core.CheckSoundness(spec.Mechanism, spec.Policy, sortedDomain(spec.Domain), spec.Observation)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := core.CheckSoundness(spec.Mechanism, spec.Policy, spec.Domain, spec.Observation)
		if err != nil {
			t.Fatal(err)
		}
		want.Checked = whole.Checked
		if g := got.SoundnessReport(); !reflect.DeepEqual(g, want) {
			t.Fatalf("%s: fold %+v, CheckSoundness %+v", how, g, want)
		}
	case Maximality:
		want, err := core.CheckMaximality(spec.Mechanism, spec.Program, spec.Policy, sortedDomain(spec.Domain), spec.Observation)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := core.CheckMaximality(spec.Mechanism, spec.Program, spec.Policy, spec.Domain, spec.Observation)
		if err != nil {
			t.Fatal(err)
		}
		if got.Maximal != want.Maximal || !slices.Equal(got.Witness, want.Witness) || got.Reason != want.Reason || got.Checked != whole.Checked {
			t.Fatalf("%s: fold %s (checked %d), CheckMaximality %s (checked %d)", how, got, got.Checked, want, whole.Checked)
		}
	}
}

// sameFold runs spec through both routes at the given worker count and
// width. The verdicts must be byte-identical and the sequential oracles'
// (see matchOracle); so must each shard's of a 3-way split be
// byte-identical, evidence tables included; and the merged shards must be
// byte-identical to the whole-domain verdict.
func sameFold(t testing.TB, spec Spec, workers, width int) {
	ctx := context.Background()
	opts := []Option{WithWorkers(workers), WithBatch(width), WithChunk(3)}
	compare := func(how string, got, want Verdict) {
		if !reflect.DeepEqual(got, want) || jsonOf(t, got) != jsonOf(t, want) {
			t.Fatalf("%s:\n  %s\nwant\n  %s", how, jsonOf(t, got), jsonOf(t, want))
		}
	}
	run := func(s Spec) (Verdict, Verdict) {
		got, err := Run(ctx, s, opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(ctx, stringRoute(s), opts...)
		if err != nil {
			t.Fatal(err)
		}
		return got, want
	}
	how := fmt.Sprintf("%s %s/%s workers=%d width=%d", spec.Kind, spec.Policy.Name(), spec.Observation.ObsName, workers, width)
	got, want := run(spec)
	compare(how+": view-key route vs string route", got, want)
	matchOracle(t, how, spec, got)

	size := int64(spec.Domain.Size())
	var gotParts, wantParts []Verdict
	for i := int64(0); i < 3; i++ {
		s := spec
		s.Shard = Shard{Offset: size * i / 3, Count: size*(i+1)/3 - size*i/3}
		if s.Shard.Count == 0 {
			continue
		}
		g, w := run(s)
		compare(fmt.Sprintf("%s shard %d: view-key route vs string route", how, i), g, w)
		gotParts, wantParts = append(gotParts, g), append(wantParts, w)
	}
	if len(gotParts) == 0 {
		return
	}
	gotMerged, err := Merge(gotParts...)
	if err != nil {
		t.Fatal(err)
	}
	wantMerged, err := Merge(wantParts...)
	if err != nil {
		t.Fatal(err)
	}
	compare(how+" merged: view-key route vs string route", gotMerged, wantMerged)
	compare(how+" merged vs whole domain", gotMerged, got)
}

// TestFoldKeysMatchStringFold is the differential test of the fold's two
// routes, view keys with field comparison against interned views with
// rendered comparison, and of both against the sequential oracles:
// table-driven and compiled mechanisms, Allow and Integrity, every
// built-in observation, 1, 2 and 4 workers, widths 1 and 16, and a 3-way
// shard split, over contiguous, gapped, descending and repeated-value
// domains, allow() and all-allowed, and the nullary domain. Soundness
// witnesses, like everything else, must match at every worker count.
func TestFoldKeysMatchStringFold(t *testing.T) {
	domains := []struct {
		name string
		dom  core.Domain
	}{
		{"contiguous", core.Grid(3, core.Range(-2, 3)...)},
		{"gapped", core.Domain{{-5, 0, 3, 9}, {1, 2, 4}, {0, 7, 8, 20, 21}}},
		{"descending", core.Domain{{3, 2, 1, 0}, {2, 1, 0}, {4, 3, 2, 1, 0}}},
		{"repeated", core.Grid(3, 1, 1, 2)},
		{"repeated-inner", core.Domain{{0, 1, 2}, {0, 1}, {4, 5, 5, 6}}},
	}
	sets := []lattice.IndexSet{
		lattice.NewIndexSet(),
		lattice.NewIndexSet(1),
		lattice.NewIndexSet(3),
		lattice.NewIndexSet(1, 3),
		lattice.AllInputs(3),
	}
	type question struct {
		name  string
		specs []Spec
	}
	var questions []question
	for _, d := range domains {
		for si, set := range sets {
			var pol core.Policy = core.NewAllowSet(3, set)
			if si%2 == 1 {
				pol = core.NewIntegrity(3, set.Indices()...)
			}
			q := tableMech("q", 3, lattice.AllInputs(3), int64(si), false)
			for _, noisy := range []bool{false, true} {
				m := tableMech("m", 3, set, 7, noisy)
				questions = append(questions, question{
					name:  fmt.Sprintf("%s/%s/noisy=%v", d.name, pol.Name(), noisy),
					specs: foldQuestions(t, m, q, pol, set, d.dom),
				})
			}
		}
	}

	// Compiled programs: a progen program and its surveillance mechanism.
	r := rand.New(rand.NewSource(17))
	for i, set := range sets {
		prog := progen.Generate(r, progen.DefaultConfig(3))
		bare := core.FromProgram(prog)
		instr, err := surveillance.Mechanism(prog, set, surveillance.Variant(i%2))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range domains[:2] {
			questions = append(questions, question{
				name:  fmt.Sprintf("progen-%d/%s", i, d.name),
				specs: foldQuestions(t, instr, bare, core.NewAllowSet(3, set), set, d.dom),
			})
		}
	}

	// The nullary domain: one empty tuple, one class.
	for _, noisy := range []bool{false, true} {
		q := tableMech("q", 0, 0, 3, false)
		questions = append(questions, question{
			name:  fmt.Sprintf("nullary/noisy=%v", noisy),
			specs: foldQuestions(t, tableMech("m", 0, 0, 4, noisy), q, core.NewAllow(0), 0, core.Domain{}),
		})
	}

	for _, qn := range questions {
		t.Run(qn.name, func(t *testing.T) {
			for _, spec := range qn.specs {
				for _, c := range [][2]int{{1, 1}, {1, 16}, {2, 16}, {4, 1}} {
					sameFold(t, spec, c[0], c[1])
				}
			}
		})
	}
}

// FuzzFoldKeys builds a question from the fuzz bytes — a domain whose
// axes may be gapped, unsorted or carry repeated values, an allow set, a
// table-driven Q and mechanism, an observation and a worker count — and
// requires the fold's two routes to agree with each other and with the
// sequential oracles (see sameFold), and neither to panic.
func FuzzFoldKeys(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 3, 1, 2, 0, 5, 1, 9, 2, 1, 0, 1})
	f.Add([]byte{2, 3, 1, 2, 2, 2, 0, 3, 7, 3, 3, 4, 1, 1, 0})
	f.Add([]byte{1, 4, 3, 9, 9, 9, 9, 1, 2, 2, 2, 5, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		k := in.next() % 4
		dom := make(core.Domain, k)
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
		}
		var allowed []int
		mask := in.next()
		for i := 1; i <= k; i++ {
			if mask&(1<<(i-1)) != 0 {
				allowed = append(allowed, i)
			}
		}
		set := lattice.NewIndexSet(allowed...)
		var pol core.Policy = core.NewAllow(k, allowed...)
		if in.next()%2 == 1 {
			pol = core.NewIntegrity(k, allowed...)
		}
		deps := set
		if in.next()%2 == 1 {
			deps = lattice.AllInputs(k)
		}
		salt := int64(in.next())
		q := tableMech("q", k, lattice.AllInputs(k), salt, false)
		m := tableMech("m", k, deps, salt+1, in.next()%2 == 1)
		obs := observations[in.next()%len(observations)]
		workers := 1 + in.next()%4
		width := []int{1, 16}[in.next()%2]

		sameFold(t, Spec{Kind: Soundness, Mechanism: m, Policy: pol, Domain: dom, Observation: obs}, workers, width)
		var mm core.Mechanism = gate(q, deps, salt)
		if in.next()%2 == 1 {
			var err error
			if mm, err = core.Maximal(q, pol, dom, obs); err != nil {
				t.Fatal(err)
			}
		}
		sameFold(t, Spec{Kind: Maximality, Mechanism: mm, Program: q, Policy: pol, Domain: dom, Observation: obs}, workers, width)
	})
}

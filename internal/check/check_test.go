package check

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"spm/internal/core"
	"spm/internal/flowchart"
	"spm/internal/lattice"
	"spm/internal/surveillance"
)

// testProg leaks x1 into the output on the x2 != 0 path, so under allow(2)
// the bare program is unsound and the instrumented one sound.
const testProg = `
program demo
inputs x1 x2
    r := x1
    r := 0
    if x2 == 0 goto Zero else NonZero
Zero:    y := r
         halt
NonZero: y := x1
         halt
`

func fixtures(t *testing.T) (q *core.Program, m core.Mechanism, pol core.Policy, dom core.Domain) {
	t.Helper()
	p := flowchart.MustParse(testProg)
	mech, err := surveillance.Mechanism(p, lattice.NewIndexSet(2), surveillance.Untimed)
	if err != nil {
		t.Fatal(err)
	}
	return core.FromProgram(p), mech, core.NewAllow(2, 2), core.Grid(2, 0, 1, 2)
}

func TestRunSoundnessMatchesSequential(t *testing.T) {
	q, m, pol, dom := fixtures(t)
	for name, mech := range map[string]core.Mechanism{"instrumented": m, "bare": q} {
		want, err := core.CheckSoundness(mech, pol, dom, core.ObserveValue)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range [][]Option{
			nil,
			{WithWorkers(1)},
			{WithWorkers(4), WithChunk(2)},
			{WithCompiled(false)},
		} {
			v, err := Run(context.Background(), Spec{
				Kind: Soundness, Mechanism: mech, Policy: pol, Domain: dom,
			}, opts...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if v.Sound != want.Sound || v.Checked != want.Checked {
				t.Errorf("%s opts %d: verdict (sound=%v checked=%d) != sequential (sound=%v checked=%d)",
					name, len(opts), v.Sound, v.Checked, want.Sound, want.Checked)
			}
			if !v.Sound && (v.WitnessA == nil || v.WitnessB == nil) {
				t.Errorf("%s: unsound verdict without witnesses", name)
			}
		}
	}
}

func TestRunDefaultsObservation(t *testing.T) {
	_, m, pol, dom := fixtures(t)
	v, err := Run(context.Background(), Spec{Kind: Soundness, Mechanism: m, Policy: pol, Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	if v.Observation != core.ObserveValue.ObsName {
		t.Errorf("observation defaulted to %q, want %q", v.Observation, core.ObserveValue.ObsName)
	}
}

func TestRunMaximality(t *testing.T) {
	q, m, pol, dom := fixtures(t)
	want, err := core.CheckMaximality(m, q, pol, dom, core.ObserveValue)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Run(context.Background(), Spec{
		Kind: Maximality, Mechanism: m, Program: q, Policy: pol, Domain: dom,
	}, WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	if v.Maximal != want.Maximal || v.Checked != want.Checked {
		t.Errorf("verdict (maximal=%v checked=%d) != sequential (maximal=%v checked=%d)",
			v.Maximal, v.Checked, want.Maximal, want.Checked)
	}
	if !v.Maximal && v.Reason == "" {
		t.Error("non-maximal verdict without a reason")
	}
}

func TestRunPassCount(t *testing.T) {
	_, m, _, dom := fixtures(t)
	v, err := Run(context.Background(), Spec{Kind: PassCount, Mechanism: m, Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: sequential enumeration.
	want := 0
	if err := dom.Enumerate(func(in []int64) error {
		o, err := m.Run(in)
		if err != nil {
			return err
		}
		if !o.Violation {
			want++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if v.Passes != want {
		t.Errorf("passes = %d, want %d", v.Passes, want)
	}
	if v.Checked != dom.Size() {
		t.Errorf("checked = %d, want %d", v.Checked, dom.Size())
	}
}

// tupleCount is a sweep observer that sums the tuples of every completed
// chunk: a run's progress.
type tupleCount struct{ atomic.Int64 }

func (c *tupleCount) ChunkDone(_, tuples int, _ time.Duration) { c.Add(int64(tuples)) }

func TestRunProgressReachesTotal(t *testing.T) {
	q, m, pol, dom := fixtures(t)
	var progress tupleCount
	if _, err := Run(context.Background(), Spec{
		Kind: Maximality, Mechanism: m, Program: q, Policy: pol, Domain: dom,
	}, WithObserver(&progress)); err != nil {
		t.Fatal(err)
	}
	// Maximality is one evidence pass: every tuple is counted once.
	if want := int64(dom.Size()); progress.Load() != want {
		t.Errorf("progress = %d, want %d (one pass over the domain)", progress.Load(), want)
	}
}

// chunkCount is a sweep observer that counts completed chunks and sums
// their tuples.
type chunkCount struct{ chunks, tuples atomic.Int64 }

func (c *chunkCount) ChunkDone(_, tuples int, _ time.Duration) {
	c.chunks.Add(1)
	c.tuples.Add(int64(tuples))
}

// TestRunCommitCoversWholeDomainMaximality: the one-pass engine sweeps a
// whole-domain maximality run once, so at two workers and two-tuple
// chunks the observer sees every chunk of the domain exactly once and
// their tuples reach the domain size.
func TestRunCommitCoversWholeDomainMaximality(t *testing.T) {
	q, m, pol, dom := fixtures(t)
	var seen chunkCount
	if _, err := Run(context.Background(), Spec{
		Kind: Maximality, Mechanism: m, Program: q, Policy: pol, Domain: dom,
	}, WithWorkers(2), WithChunk(2), WithObserver(&seen)); err != nil {
		t.Fatal(err)
	}
	if seen.tuples.Load() != int64(dom.Size()) {
		t.Errorf("observed tuples = %d, want %d", seen.tuples.Load(), dom.Size())
	}
	if want := int64((dom.Size() + 1) / 2); seen.chunks.Load() != want {
		t.Errorf("observed chunks = %d, want %d (one pass of two-tuple chunks)", seen.chunks.Load(), want)
	}
}

func TestRunBadSpecs(t *testing.T) {
	q, m, pol, dom := fixtures(t)
	cases := []struct {
		name string
		spec Spec
	}{
		{"nil mechanism", Spec{Kind: Soundness, Policy: pol, Domain: dom}},
		{"soundness without policy", Spec{Kind: Soundness, Mechanism: m, Domain: dom}},
		{"maximality without policy", Spec{Kind: Maximality, Mechanism: m, Program: q, Domain: dom}},
		{"maximality without program", Spec{Kind: Maximality, Mechanism: m, Policy: pol, Domain: dom}},
		{"unknown kind", Spec{Kind: Kind(42), Mechanism: m, Policy: pol, Domain: dom}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(context.Background(), tc.spec); !errors.Is(err, ErrBadSpec) {
				t.Errorf("err = %v, want ErrBadSpec", err)
			}
		})
	}
}

func TestRunCancelled(t *testing.T) {
	_, m, pol, _ := fixtures(t)
	big := core.Grid(2, core.Range(0, 127)...) // 16k tuples
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, Spec{Kind: Soundness, Mechanism: m, Policy: pol, Domain: big})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestKindStrings(t *testing.T) {
	if Soundness.String() != "soundness" || Maximality.String() != "maximality" || PassCount.String() != "passcount" {
		t.Error("kind names changed")
	}
}

func TestVerdictStrings(t *testing.T) {
	q, m, pol, dom := fixtures(t)
	sv, err := Run(context.Background(), Spec{Kind: Soundness, Mechanism: m, Policy: pol, Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	if sv.String() != sv.SoundnessReport().String() {
		t.Errorf("soundness verdict string %q != report string", sv.String())
	}
	mv, err := Run(context.Background(), Spec{Kind: Maximality, Mechanism: m, Program: q, Policy: pol, Domain: dom})
	if err != nil {
		t.Fatal(err)
	}
	if mv.String() != mv.MaximalityReport().String() {
		t.Errorf("maximality verdict string %q != report string", mv.String())
	}
}

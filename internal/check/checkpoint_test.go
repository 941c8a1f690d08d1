package check

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"spm/internal/core"
	"spm/internal/lattice"
	"spm/internal/progen"
	"spm/internal/surveillance"
)

// ckRun runs RunCheckpointed discarding checkpoints.
func ckRun(t *testing.T, spec Spec, every int64, opts ...Option) Verdict {
	t.Helper()
	v, err := RunCheckpointed(context.Background(), spec, nil, every,
		func(Checkpoint) error { return nil }, opts...)
	if err != nil {
		t.Fatalf("RunCheckpointed(every=%d): %v", every, err)
	}
	return v
}

func TestRunCheckpointedMatchesRunOnFixtures(t *testing.T) {
	q, m, pol, dom := fixtures(t)
	specs := map[string]Spec{
		"soundness":  {Kind: Soundness, Mechanism: m, Policy: pol, Domain: dom},
		"maximality": {Kind: Maximality, Mechanism: m, Program: q, Policy: pol, Domain: dom},
		"passcount":  {Kind: PassCount, Mechanism: m, Domain: dom},
	}
	for name, spec := range specs {
		whole, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, every := range []int64{1, 2, 3, 7, 9, 1000} {
			for _, workers := range []int{1, 4} {
				got := ckRun(t, spec, every, WithWorkers(workers), WithChunk(2))
				if !reflect.DeepEqual(got, whole) {
					t.Errorf("%s every=%d workers=%d: checkpointed verdict differs:\n  %+v\nvs\n  %+v",
						name, every, workers, got, whole)
				}
			}
		}
	}
}

// TestRunCheckpointedMatchesRunOnRandomPrograms is the differential
// harness: randomized progen programs, bare and instrumented, soundness
// and maximality, segmented at several granularities against the plain
// whole-domain Run.
func TestRunCheckpointedMatchesRunOnRandomPrograms(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	cfg := progen.DefaultConfig(2)
	dom := core.Grid(2, 0, 1, 2, 3)
	for i := 0; i < 15; i++ {
		prog := progen.Generate(r, cfg)
		allowed := lattice.NewIndexSet()
		if r.Intn(2) == 1 {
			allowed = lattice.NewIndexSet(2)
		}
		pol := core.NewAllowSet(2, allowed)
		bare := core.FromProgram(prog)
		instr, err := surveillance.Mechanism(prog, allowed, surveillance.Untimed)
		if err != nil {
			t.Fatalf("program %d: instrument: %v", i, err)
		}
		for name, m := range map[string]core.Mechanism{"bare": bare, "instrumented": instr} {
			for _, spec := range []Spec{
				{Kind: Soundness, Mechanism: m, Policy: pol, Domain: dom},
				{Kind: Maximality, Mechanism: m, Program: bare, Policy: pol, Domain: dom},
			} {
				whole, err := Run(context.Background(), spec)
				if err != nil {
					t.Fatalf("program %d %s: %v", i, name, err)
				}
				for _, every := range []int64{3, 8, 16} {
					got := ckRun(t, spec, every, WithWorkers(2), WithChunk(2))
					if !reflect.DeepEqual(got, whole) {
						t.Errorf("program %d %s %v every=%d: checkpointed verdict differs:\n  %+v\nvs\n  %+v",
							i, name, spec.Kind, every, got, whole)
					}
				}
			}
		}
	}
}

// TestRunCheckpointedResumeByteIdentical interrupts a run mid-way, JSON
// round-trips the last checkpoint (the store's representation), resumes
// from it, and requires the final verdict to equal the uninterrupted run's
// field for field, witnesses included, at one worker and at several.
func TestRunCheckpointedResumeByteIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(1942))
	cfg := progen.DefaultConfig(2)
	dom := core.Grid(2, 0, 1, 2, 3)
	const every = 3
	for i := 0; i < 10; i++ {
		opts := []Option{WithWorkers(1 + i%4), WithChunk(2)}
		prog := progen.Generate(r, cfg)
		pol := core.NewAllowSet(2, lattice.NewIndexSet(2))
		bare := core.FromProgram(prog)
		for _, spec := range []Spec{
			{Kind: Soundness, Mechanism: bare, Policy: pol, Domain: dom},
			{Kind: Maximality, Mechanism: bare, Program: bare, Policy: pol, Domain: dom},
		} {
			uninterrupted := ckRun(t, spec, every, opts...)

			// Interrupt: cancel after the second checkpoint lands.
			ctx, cancel := context.WithCancel(context.Background())
			var saved []byte
			saves := 0
			_, err := RunCheckpointed(ctx, spec, nil, every, func(ck Checkpoint) error {
				saves++
				data, err := json.Marshal(ck)
				if err != nil {
					return err
				}
				saved = data
				if saves == 2 {
					cancel()
				}
				return nil
			}, opts...)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("program %d %v: interrupted run returned %v, want context.Canceled", i, spec.Kind, err)
			}

			var ck Checkpoint
			if err := json.Unmarshal(saved, &ck); err != nil {
				t.Fatalf("program %d %v: checkpoint round-trip: %v", i, spec.Kind, err)
			}
			if ck.Cursor != 2*every || ck.Partial == nil {
				t.Fatalf("program %d %v: unexpected checkpoint %s", i, spec.Kind, saved)
			}
			resumed, err := RunCheckpointed(context.Background(), spec, &ck, every,
				func(Checkpoint) error { return nil }, opts...)
			if err != nil {
				t.Fatalf("program %d %v: resume: %v", i, spec.Kind, err)
			}
			if !reflect.DeepEqual(resumed, uninterrupted) {
				t.Errorf("program %d %v: resumed verdict not byte-identical:\n  %+v\nvs\n  %+v",
					i, spec.Kind, resumed, uninterrupted)
			}
		}
	}
}

// TestRunCheckpointedShardedSpec checks that a sharded spec returns an
// evidence-preserving partial verdict whose Merge with the complementary
// shard reproduces the whole-domain verdict.
func TestRunCheckpointedShardedSpec(t *testing.T) {
	_, m, pol, dom := fixtures(t)
	spec := Spec{Kind: Soundness, Mechanism: m, Policy: pol, Domain: dom}
	whole, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	left := spec
	left.Shard = Shard{Offset: 0, Count: 4}
	right := spec
	right.Shard = Shard{Offset: 4}
	lv := ckRun(t, left, 3, WithWorkers(1))
	rv := ckRun(t, right, 3, WithWorkers(1))
	if lv.Views == nil || rv.Views == nil {
		t.Fatalf("sharded checkpointed runs must carry evidence: %+v / %+v", lv, rv)
	}
	if lv.Shard != left.Shard {
		t.Errorf("left shard echo = %+v, want %+v", lv.Shard, left.Shard)
	}
	merged, err := Merge(lv, rv)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, whole) {
		t.Errorf("merged sharded checkpointed halves differ from whole:\n  %+v\nvs\n  %+v", merged, whole)
	}
}

// TestRunCheckpointedResumeSweepsOnlySuffix: a run resumed from a
// checkpoint visits exactly the tuples above its cursor, and the observer
// sees every chunk of every remaining segment.
func TestRunCheckpointedResumeSweepsOnlySuffix(t *testing.T) {
	_, m, pol, dom := fixtures(t)
	spec := Spec{Kind: Soundness, Mechanism: m, Policy: pol, Domain: dom}

	var ck Checkpoint
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunCheckpointed(ctx, spec, nil, 3, func(c Checkpoint) error {
		data, _ := json.Marshal(c)
		_ = json.Unmarshal(data, &ck)
		cancel()
		return nil
	}, WithWorkers(1), WithChunk(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if ck.Cursor != 3 {
		t.Fatalf("checkpoint cursor = %d, want 3", ck.Cursor)
	}

	var swept tupleCount
	if _, err := RunCheckpointed(context.Background(), spec, &ck, 3, nil,
		WithWorkers(1), WithChunk(2), WithObserver(&swept)); err != nil {
		t.Fatal(err)
	}
	if want := int64(dom.Size()) - ck.Cursor; swept.Load() != want {
		t.Errorf("resumed run swept %d tuples, want %d (the range above cursor %d)", swept.Load(), want, ck.Cursor)
	}
}

// TestRunCheckpointedResumeLeavesCheckpointUnchanged: the fold updates its
// evidence tables in place, so a resume must work on its own copy and
// leave the caller's from.Partial exactly as it was.
func TestRunCheckpointedResumeLeavesCheckpointUnchanged(t *testing.T) {
	q, m, pol, dom := fixtures(t)
	for _, spec := range []Spec{
		// allow(1,2) puts every tuple in its own view, so each segment
		// adds view entries.
		{Kind: Soundness, Mechanism: q, Policy: core.NewAllow(2, 1, 2), Domain: dom},
		{Kind: Maximality, Mechanism: m, Program: q, Policy: pol, Domain: dom},
	} {
		var from, pristine Checkpoint
		if _, err := RunCheckpointed(context.Background(), spec, nil, 4, func(ck Checkpoint) error {
			if from.Partial == nil {
				data, err := json.Marshal(ck)
				if err != nil {
					return err
				}
				if err := json.Unmarshal(data, &from); err != nil {
					return err
				}
				return json.Unmarshal(data, &pristine)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(from.Partial.Views)+len(from.Partial.Classes) == 0 {
			t.Fatalf("%v: checkpoint carries no evidence: %+v", spec.Kind, from.Partial)
		}
		if _, err := RunCheckpointed(context.Background(), spec, &from, 4, nil); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(from, pristine) {
			t.Errorf("%v: resume mutated the caller's checkpoint:\n  %+v\nwas\n  %+v", spec.Kind, from.Partial, pristine.Partial)
		}
	}
}

func TestRunCheckpointedBadResume(t *testing.T) {
	_, m, pol, dom := fixtures(t)
	spec := Spec{Kind: Soundness, Mechanism: m, Policy: pol, Domain: dom}
	for name, from := range map[string]*Checkpoint{
		"cursor without evidence": {Cursor: 3},
		"negative cursor":         {Cursor: -1},
		"cursor beyond range":     {Cursor: 99, Partial: &Verdict{}},
	} {
		if _, err := RunCheckpointed(context.Background(), spec, from, 3, nil); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: err = %v, want ErrBadSpec", name, err)
		}
	}
}

func TestRunCheckpointedSaveErrorAborts(t *testing.T) {
	_, m, pol, dom := fixtures(t)
	boom := errors.New("disk full")
	_, err := RunCheckpointed(context.Background(),
		Spec{Kind: Soundness, Mechanism: m, Policy: pol, Domain: dom}, nil, 3,
		func(Checkpoint) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped save error", err)
	}
}

// TestVerdictJSONRoundTrip pins the wire form of Verdict: evidence tables,
// witnesses, and kind names all survive marshal/unmarshal — the property
// the persistent store's checkpoint records depend on.
func TestVerdictJSONRoundTrip(t *testing.T) {
	q, m, pol, dom := fixtures(t)
	for name, spec := range map[string]Spec{
		"sharded soundness":  {Kind: Soundness, Mechanism: m, Policy: pol, Domain: dom, Shard: Shard{Offset: 1, Count: 5}},
		"sharded maximality": {Kind: Maximality, Mechanism: m, Program: q, Policy: pol, Domain: dom, Shard: Shard{Offset: 0, Count: 6}},
		"whole passcount":    {Kind: PassCount, Mechanism: m, Domain: dom},
	} {
		v, err := Run(context.Background(), spec, WithWorkers(1))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var back Verdict
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(v, back) {
			t.Errorf("%s: round trip lost data:\n  %+v\nvs\n  %+v\n  wire %s", name, v, back, data)
		}
	}
	var k Kind
	if err := k.UnmarshalText([]byte("maximality")); err != nil || k != Maximality {
		t.Errorf("UnmarshalText(maximality) = %v, %v", k, err)
	}
	if err := k.UnmarshalText([]byte("nonsense")); err == nil {
		t.Error("UnmarshalText accepted nonsense")
	}
	if _, err := Kind(42).MarshalText(); err == nil {
		t.Error("MarshalText accepted unknown kind")
	}
}

// TestRunCheckpointedShardEvidenceMatchesRun compares a sharded
// RunCheckpointed with a sharded Run over the same range evidence table
// and all: the segment fold and the per-worker fold must keep one rule, so
// the Views and Classes a coordinator merges do not depend on how the
// shard was executed. On a descending domain a later segment holds lesser
// inputs, which is where a fold that keeps the first part's entry would
// differ from one that keeps the least input's.
func TestRunCheckpointedShardEvidenceMatchesRun(t *testing.T) {
	r := rand.New(rand.NewSource(2210))
	cfg := progen.DefaultConfig(2)
	doms := map[string]core.Domain{
		"ascending":  core.Grid(2, 0, 1, 2, 3),
		"descending": core.Grid(2, 3, 2, 1, 0),
	}
	for i := 0; i < 8; i++ {
		prog := progen.Generate(r, cfg)
		allowed := lattice.NewIndexSet(1 + i%2)
		pol := core.NewAllowSet(2, allowed)
		bare := core.FromProgram(prog)
		instr, err := surveillance.Mechanism(prog, allowed, surveillance.Untimed)
		if err != nil {
			t.Fatalf("program %d: instrument: %v", i, err)
		}
		for dname, dom := range doms {
			for _, spec := range []Spec{
				{Kind: Soundness, Mechanism: bare, Policy: pol, Domain: dom},
				{Kind: Maximality, Mechanism: instr, Program: bare, Policy: pol, Domain: dom},
			} {
				spec.Shard = Shard{Offset: 2, Count: 11}
				want, err := Run(context.Background(), spec, WithWorkers(1))
				if err != nil {
					t.Fatal(err)
				}
				for _, every := range []int64{1, 3, 5} {
					for _, workers := range []int{1, 3} {
						got := ckRun(t, spec, every, WithWorkers(workers), WithChunk(1))
						if !reflect.DeepEqual(got, want) {
							t.Errorf("program %d %s %v every=%d workers=%d: checkpointed shard differs from Run:\n  %+v\nvs\n  %+v",
								i, dname, spec.Kind, every, workers, got, want)
						}
					}
				}
			}
		}
	}
}

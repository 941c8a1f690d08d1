package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"spm/internal/check"
	"spm/internal/cluster"
	"spm/internal/core"
	"spm/internal/flowchart"
	"spm/internal/service"
	"spm/internal/surveillance"
)

// spec is a request resolved through the same public layers the service
// uses — parse, policy, instrument, compile — but without the service:
// no HTTP, compile cache, scheduler, store or cluster.
type spec struct {
	prog    *flowchart.Program
	bare    *core.CompiledMechanism
	instr   *flowchart.Program // nil for raw requests
	mech    core.Mechanism
	pol     core.Policy
	dom     core.Domain
	obs     core.Observation
	maximal bool
}

// layerTimes are the durations of resolve's calls into the parse,
// instrument and compile layers; zero when untraced.
type layerTimes struct {
	parse, instrument, compile time.Duration
}

// resolve builds the spec of req. With a tracer, each layer call is a
// child span of root.
func resolve(tr *tracer, root int, req service.CheckRequest) (*spec, layerTimes, error) {
	var t layerTimes
	var prog *flowchart.Program
	var err error
	t.parse = tr.timed("flowchart.parse", root, func() { prog, err = flowchart.Parse(req.Program) })
	if err != nil {
		return nil, t, err
	}
	allowed, err := service.ParsePolicy(req.Policy, prog.Arity())
	if err != nil {
		return nil, t, err
	}
	variant, err := service.ParseVariant(req.Variant)
	if err != nil {
		return nil, t, err
	}
	s := &spec{prog: prog, maximal: req.Maximal,
		pol: core.NewAllowSet(prog.Arity(), allowed),
		dom: core.Grid(prog.Arity(), req.Domain...),
		obs: core.ObserveValue,
	}
	if req.Timed {
		s.obs = core.ObserveValueAndTime
	}
	t.compile = tr.timed("flowchart.compile", root, func() { s.bare, err = core.CompileMechanism(core.FromProgram(prog)) })
	if err != nil {
		return nil, t, err
	}
	s.mech = s.bare
	if !req.Raw {
		t.instrument = tr.timed("surveillance.instrument", root, func() {
			s.instr, err = surveillance.Instrument(prog, allowed, variant)
		})
		if err != nil {
			return nil, t, err
		}
		var mech *core.CompiledMechanism
		t.compile += tr.timed("flowchart.compile", root, func() { mech, err = core.CompileMechanism(core.FromProgram(s.instr)) })
		if err != nil {
			return nil, t, err
		}
		s.mech = mech
	}
	return s, t, nil
}

// run decides the spec's verdicts: soundness, then maximality when asked.
func (s *spec) run(ctx context.Context, shard check.Shard, opts ...check.Option) (sound check.Verdict, max *check.Verdict, err error) {
	decide := func(k check.Kind) (check.Verdict, error) {
		cs := check.Spec{Kind: k, Mechanism: s.mech, Policy: s.pol, Domain: s.dom, Observation: s.obs, Shard: shard}
		if k == check.Maximality {
			cs.Program = s.bare
		}
		return check.Run(ctx, cs, opts...)
	}
	if sound, err = decide(check.Soundness); err != nil || !s.maximal {
		return sound, nil, err
	}
	mv, err := decide(check.Maximality)
	return sound, &mv, err
}

// reference is the verdict a request must get, decided by a direct
// check.Run with the options a default service uses on a two-CPU machine
// (one sweep worker, batch width service.DefaultSweepBatch), so that with
// one worker its witnesses are the ones the service must report. It keeps
// only the verdicts: compiled mechanisms kept live for the whole run would
// change the service's garbage-collection pacing.
type reference struct {
	req   service.CheckRequest
	sound check.Verdict
	max   *check.Verdict
}

// refKey identifies a request: the references are shared by every job
// and round that submits the same one.
func refKey(req service.CheckRequest) string {
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return string(b)
}

// references decides every distinct request once, on all CPUs (one job
// per CPU, one sweep worker per job, so each verdict is deterministic).
func references(ctx context.Context, reqs []service.CheckRequest) (map[string]*reference, error) {
	refs := map[string]*reference{}
	var todo []service.CheckRequest
	for _, req := range reqs {
		k := refKey(req)
		if _, ok := refs[k]; !ok {
			refs[k] = nil
			todo = append(todo, req)
		}
	}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
		next     = make(chan service.CheckRequest)
	)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range next {
				ref, err := newReference(ctx, req)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				refs[refKey(req)] = ref
				mu.Unlock()
			}
		}()
	}
	for _, req := range todo {
		next <- req
	}
	close(next)
	wg.Wait()
	return refs, firstErr
}

func newReference(ctx context.Context, req service.CheckRequest) (*reference, error) {
	s, _, err := resolve(nil, 0, req)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	sound, max, err := s.run(ctx, check.Shard{}, check.WithWorkers(1), check.WithBatch(service.DefaultSweepBatch))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return &reference{req: req, sound: sound, max: max}, nil
}

// errWrong marks a verdict that disagrees with its reference.
var errWrong = errors.New("wrong verdict")

// checkResult compares a service result with the reference. Witnesses
// must equal the reference's, or — when the service sweeps with several
// workers, whose witness choice is scheduling-dependent — be genuine: a
// soundness witness pair must share a policy view and be observed as
// reported, differently.
func (r *reference) checkResult(res *service.Result, sweepWorkers int) error {
	if res == nil {
		return fmt.Errorf("%w: no result", errWrong)
	}
	v := r.sound
	if res.Sound != v.Sound || res.Checked != v.Checked || res.Mechanism != v.Mechanism || res.Policy != v.Policy {
		return fmt.Errorf("%w: sound=%v checked=%d mechanism=%q policy=%q, want sound=%v checked=%d mechanism=%q policy=%q",
			errWrong, res.Sound, res.Checked, res.Mechanism, res.Policy, v.Sound, v.Checked, v.Mechanism, v.Policy)
	}
	if err := r.checkWitness(res.WitnessA, res.WitnessB, res.ObsA, res.ObsB, sweepWorkers); err != nil {
		return err
	}
	if (res.Maximal != nil) != (r.max != nil) {
		return fmt.Errorf("%w: maximality verdict present=%v, want %v", errWrong, res.Maximal != nil, r.max != nil)
	}
	if m := r.max; m != nil {
		if *res.Maximal != m.Maximal || res.MaximalReason != m.Reason {
			return fmt.Errorf("%w: maximal=%v (%s), want %v (%s)", errWrong, *res.Maximal, res.MaximalReason, m.Maximal, m.Reason)
		}
		if sweepWorkers == 1 && !slices.Equal(res.MaximalWitness, m.Witness) {
			return fmt.Errorf("%w: maximality witness %v, want %v", errWrong, res.MaximalWitness, m.Witness)
		}
	}
	return nil
}

// checkReport compares a cluster report with the reference: the merged
// verdict must agree with the single-process one. A report cut short by a
// counterexample covers only the shards that finished, so it must carry a
// counterexample the reference also found: a genuine soundness witness, or
// a maximality failure.
func (r *reference) checkReport(rep *cluster.Report) error {
	v, got := r.sound, rep.Soundness
	if !rep.Complete {
		switch {
		case !got.Sound && !v.Sound:
			return r.genuine(got.WitnessA, got.WitnessB, got.ObsA, got.ObsB)
		case rep.Maximality != nil && r.max != nil && !rep.Maximality.Maximal && !r.max.Maximal:
			return nil
		}
		return fmt.Errorf("%w: cluster report incomplete (%d/%d shards) without the reference's counterexample", errWrong, rep.Completed, rep.Shards)
	}
	if got.Sound != v.Sound || got.Checked != v.Checked {
		return fmt.Errorf("%w: sound=%v checked=%d, want sound=%v checked=%d", errWrong, got.Sound, got.Checked, v.Sound, v.Checked)
	}
	if err := r.checkWitness(got.WitnessA, got.WitnessB, got.ObsA, got.ObsB, 2); err != nil {
		return err
	}
	if (rep.Maximality != nil) != (r.max != nil) {
		return fmt.Errorf("%w: maximality verdict present=%v, want %v", errWrong, rep.Maximality != nil, r.max != nil)
	}
	if m := r.max; m != nil && (rep.Maximality.Maximal != m.Maximal || rep.Maximality.Reason != m.Reason) {
		return fmt.Errorf("%w: maximal=%v, want %v", errWrong, rep.Maximality.Maximal, m.Maximal)
	}
	return nil
}

func (r *reference) checkWitness(a, b []int64, obsA, obsB string, sweepWorkers int) error {
	v := r.sound
	if v.Sound {
		if a != nil || b != nil {
			return fmt.Errorf("%w: witness on a sound verdict", errWrong)
		}
		return nil
	}
	if slices.Equal(a, v.WitnessA) && slices.Equal(b, v.WitnessB) && obsA == v.ObsA && obsB == v.ObsB {
		return nil
	}
	if sweepWorkers == 1 {
		return fmt.Errorf("%w: witness %v/%v, want %v/%v", errWrong, a, b, v.WitnessA, v.WitnessB)
	}
	return r.genuine(a, b, obsA, obsB)
}

// genuine re-executes a soundness witness pair directly.
func (r *reference) genuine(a, b []int64, obsA, obsB string) error {
	s, _, err := resolve(nil, 0, r.req)
	if err != nil {
		return err
	}
	if len(a) != len(s.dom) || len(b) != len(s.dom) {
		return fmt.Errorf("%w: witness arity", errWrong)
	}
	for _, x := range append(slices.Clone(a), b...) {
		if !slices.Contains(r.req.Domain, x) {
			return fmt.Errorf("%w: witness value %d outside the domain", errWrong, x)
		}
	}
	if s.pol.View(a) != s.pol.View(b) {
		return fmt.Errorf("%w: witnesses %v and %v differ in policy view", errWrong, a, b)
	}
	oa, err := s.mech.Run(a)
	if err != nil {
		return err
	}
	ob, err := s.mech.Run(b)
	if err != nil {
		return err
	}
	ra, rb := s.obs.Render(oa), s.obs.Render(ob)
	if ra != obsA || rb != obsB || ra == rb {
		return fmt.Errorf("%w: witnesses observe %q/%q, reported %q/%q", errWrong, ra, rb, obsA, obsB)
	}
	return nil
}

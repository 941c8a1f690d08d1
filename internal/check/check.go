// Package check is the single entry point for every exhaustive verdict the
// library produces. A Spec names what to decide — soundness of a mechanism
// for a policy, maximality against a reference program, or the pass count
// behind the experiment tables' utility columns — and Run decides it over
// the Spec's finite domain on the shared parallel sweep engine, honouring
// the caller's context: cancelling ctx stops the enumeration within one
// chunk of tuples.
//
//	verdict, err := check.Run(ctx, check.Spec{
//	    Kind:        check.Soundness,
//	    Mechanism:   m,
//	    Policy:      pol,
//	    Domain:      core.Grid(2, 0, 1, 2),
//	    Observation: core.ObserveValue,
//	}, check.WithWorkers(8))
//
// Functional options tune the run: WithWorkers and WithChunk tune the
// engine, WithProgress exposes the chunk cursor to long-running callers
// (the policy-checking service's job lifecycle), WithBatch caps the stride
// width (DefaultBatch lanes unless set), and
// WithCompiled(false)/WithMemo(false) force the interpreter and disable
// prefix memoization for ablations.
package check

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"spm/internal/core"
	"spm/internal/sweep"
)

// ErrBadSpec wraps every Spec-validation failure: a missing mechanism or
// policy, a maximality check without its reference program, or an unknown
// kind.
var ErrBadSpec = errors.New("check: bad spec")

// Kind selects which verdict Run decides.
type Kind int

// The verdict kinds.
const (
	// Soundness decides whether the observation of the mechanism's output
	// is constant on every policy class of the domain.
	Soundness Kind = iota
	// Maximality decides whether the mechanism is the Theorem 2 maximal
	// sound mechanism for Spec.Program and Spec.Policy over the domain.
	Maximality
	// PassCount counts the domain inputs on which the mechanism returns
	// real output (no violation notice) — utility in the paper's sense.
	PassCount
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Soundness:
		return "soundness"
	case Maximality:
		return "maximality"
	case PassCount:
		return "passcount"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MarshalText renders the kind by name, so persisted verdicts (the
// verdict store's log records) stay readable and stable across reorderings
// of the constants.
func (k Kind) MarshalText() ([]byte, error) {
	switch k {
	case Soundness, Maximality, PassCount:
		return []byte(k.String()), nil
	}
	return nil, fmt.Errorf("check: cannot marshal unknown kind %d", int(k))
}

// UnmarshalText parses a kind name written by MarshalText.
func (k *Kind) UnmarshalText(text []byte) error {
	switch string(text) {
	case "soundness":
		*k = Soundness
	case "maximality":
		*k = Maximality
	case "passcount":
		*k = PassCount
	default:
		return fmt.Errorf("check: unknown kind %q", text)
	}
	return nil
}

// Shard restricts a Run to the contiguous slice [Offset, Offset+Count) of
// the domain's mixed-radix index space — the unit the cluster coordinator
// dispatches to one node. The zero value means the whole domain; Count 0
// with a non-zero Offset means "from Offset through the end". Bounds are
// clamped to the domain size; negative values are ErrBadSpec.
//
// A sharded verdict is partial evidence, not a final answer: Run populates
// Verdict.Views (soundness and maximality) and Verdict.Classes
// (maximality) so that Merge
// over every shard of a partition reproduces exactly the whole-domain
// verdict, including conflicts between inputs that landed in different
// shards.
type Shard struct {
	Offset int64 `json:"offset"`
	Count  int64 `json:"count,omitempty"`
}

// IsZero reports whether the shard denotes the whole domain.
func (s Shard) IsZero() bool { return s == Shard{} }

// SplitRemaining cuts the shard in two at the midpoint of its remaining
// range: with done tuples already swept from the front, the remainder
// [Offset+done, Offset+Count) is halved with integer arithmetic and the
// shard becomes front = [Offset, mid) — the already-swept prefix plus the
// first half of the remainder — and back = [mid, Offset+Count). front and
// back partition the original exactly, which is what lets an elastic
// cluster coordinator steal a straggler's back half to an idle node and
// re-dispatch the shrunken front without perturbing the merged verdict.
//
// ok is false — and both halves zero — when there is nothing to split:
// done is negative, Count is zero (an unbounded "through the end" shard
// has no known remainder), done has consumed the shard, or fewer than two
// tuples remain (a split would leave an empty half).
func (s Shard) SplitRemaining(done int64) (front, back Shard, ok bool) {
	if done < 0 || s.Count <= 0 || done > s.Count-2 {
		return Shard{}, Shard{}, false
	}
	rem := s.Count - done
	mid := s.Offset + done + rem/2
	front = Shard{Offset: s.Offset, Count: mid - s.Offset}
	back = Shard{Offset: mid, Count: s.Offset + s.Count - mid}
	return front, back, true
}

// Spec names one verdict: what kind, about which mechanism, against which
// policy, over which finite domain, under which observation.
type Spec struct {
	// Kind selects the verdict; the zero value is Soundness.
	Kind Kind
	// Mechanism is the mechanism under test. Required.
	Mechanism core.Mechanism
	// Program is the maximality reference Q — the bare program the
	// mechanism protects. Required for Maximality, ignored otherwise.
	Program core.Mechanism
	// Policy is the information filter. Required for Soundness and
	// Maximality, ignored by PassCount.
	Policy core.Policy
	// Domain is the finite test domain whose cartesian product is swept.
	Domain core.Domain
	// Observation selects what the user can see of an outcome; the zero
	// value means core.ObserveValue.
	Observation core.Observation
	// Shard restricts the run to a contiguous slice of the index space;
	// the zero value sweeps the whole domain. Sharded verdicts carry the
	// cross-shard evidence Merge needs.
	Shard Shard
}

// DefaultBatch is the stride-width cap Run uses unless WithBatch sets
// one: compiled mechanisms execute up to this many innermost-axis tuples
// in lockstep.
const DefaultBatch = 64

// Options collects the resolved functional options.
type Options struct {
	// Workers is the sweep parallelism; ≤ 0 lends the run idle CPUs
	// (see sweep.Config.Workers).
	Workers int
	// Chunk is the tuples a sweep worker claims at a time; ≤ 0 picks a
	// default.
	Chunk int
	// Progress, when non-nil, is advanced by the sweep engine as chunks
	// complete — the cursor behind job progress reporting.
	Progress *atomic.Int64
	// Compiled enables the compiled fast path for flowchart-backed
	// mechanisms; Run defaults it to true.
	Compiled bool
	// Memo enables prefix memoization on the compiled fast path; Run
	// defaults it to true.
	Memo bool
	// MemoStack enables the snapshot-stack tier on top of Memo — one
	// capture per domain axis and constant-suffix pruning; Run defaults
	// it to true. It has no effect when Memo is off.
	MemoStack bool
	// Batch caps the stride width; values ≤ 0 mean DefaultBatch. A
	// stride is at most one odometer row, so the width is clamped to the
	// innermost axis length.
	Batch int
	// Commit, when non-nil, receives the contiguous completed prefix of
	// the run's range (in tuples, relative to the range start) as it
	// grows — the resumable cursor behind crash-safe checkpointing.
	Commit func(done int64)
	// Throttle, when positive, makes every sweep worker pause this long
	// after each completed chunk — the artificial slow-node hook behind
	// straggler testing.
	Throttle time.Duration
	// Observer, when non-nil, receives the sweep engine's per-chunk
	// callbacks (worker, tuples, duration) — the seam behind chunk
	// counters and chunk-latency histograms.
	Observer sweep.Observer
	// Exec, when non-nil, accumulates execution-tier counters: memo
	// snapshot captures/replays/invalidations and batch
	// strides/lanes/divergence.
	Exec *core.ExecTally
}

// Option tunes one Run call.
type Option func(*Options)

// WithWorkers sets the sweep parallelism: n workers, or for n ≤ 0 one
// worker plus helpers added while the process has idle CPUs. The verdict
// is the same either way.
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithChunk sets the tuples a sweep worker claims at a time (≤ 0 means
// auto).
// The chunk also bounds cancellation latency: a cancelled sweep stops
// after at most one chunk per worker.
func WithChunk(n int) Option { return func(o *Options) { o.Chunk = n } }

// WithProgress installs the atomic cursor the sweep engine advances as
// chunks complete, so long-running checks can report done/total without
// per-tuple overhead.
func WithProgress(p *atomic.Int64) Option { return func(o *Options) { o.Progress = p } }

// WithCompiled toggles the compiled fast path for flowchart-backed
// mechanisms (default true). WithCompiled(false) forces every tuple
// through Mechanism.Run, lane by lane at any WithBatch width — the
// interpreter ablation.
func WithCompiled(on bool) Option { return func(o *Options) { o.Compiled = on } }

// WithCommit installs the sweep engine's contiguous-prefix hook: fn is
// called (serialized, strictly monotone, chunk granularity) with the
// number of leading tuples of the run's range that have all been visited.
// Unlike WithProgress — whose counter advances as chunks complete in any
// order — the committed prefix is a valid resumption point, which is what
// the persistent verdict store records as a job's crash-resume cursor.
func WithCommit(fn func(done int64)) Option { return func(o *Options) { o.Commit = fn } }

// WithMemo toggles prefix memoization on the compiled fast path (default
// true): the sweep walks each chunk in odometer order, and when only the
// innermost input changed since the previous tuple the compiled runner
// resumes from an execution snapshot — replaying just the instructions
// after the first read of that input — instead of starting at instruction
// zero. The verdict is identical either way (differential tests pin
// this); WithMemo(false) is the ablation baseline the prefix benchmarks
// compare against. It has no effect under WithCompiled(false).
func WithMemo(on bool) Option { return func(o *Options) { o.Memo = on } }

// WithMemoStack toggles the snapshot-stack tier (default true): instead
// of one snapshot at the innermost axis, each sweep worker keeps one
// capture per domain axis — taken at the first instruction that reads
// that axis's input — so an odometer carry at depth d invalidates only
// the captures below d and the next tuple replays just the tail beyond
// the shallowest changed input. Axes a program never reads collapse to
// constant entries answered without executing anything. The verdict is
// identical either way (differential tests pin this); WithMemoStack(false)
// falls back to the single-axis prefix memo — the ablation baseline the
// snapshot-stack benchmarks compare against. It has no effect under
// WithCompiled(false) or WithMemo(false).
func WithMemoStack(on bool) Option { return func(o *Options) { o.MemoStack = on } }

// WithBatch caps the stride width: each sweep worker hands every
// mechanism strides of up to n innermost-axis tuples, which compiled
// mechanisms execute in lockstep over structure-of-arrays register
// columns, amortizing instruction dispatch across the stride and letting
// the hot var⊕const / var⊕var loops auto-vectorize. A stride never spans
// more than one odometer row, so the width is clamped to the innermost
// axis length: an n above every row runs whole rows and costs nothing
// more. Lanes that diverge at a branch finish on the scalar engine; a
// mechanism with no compiled form runs the stride lane by lane through
// Mechanism.Run, beside compiled mechanisms that stay batched. Composes
// with WithMemo: one prefix snapshot per odometer row feeds every lane of
// the row's strides. n ≤ 0 means DefaultBatch, and n = 1 is a one-lane
// stride on the same kernels; the verdict is byte-identical at every
// width (differential tests pin this).
func WithBatch(n int) Option { return func(o *Options) { o.Batch = n } }

// WithThrottle makes every sweep worker pause d after each completed
// chunk (d ≤ 0 is free, the default). It never changes which tuples are
// visited — only how fast — so the verdict is identical with and without
// it. It exists as a test hook: an artificially throttled node is how the
// elastic cluster coordinator's straggler detection (shard stealing,
// speculative re-dispatch) is exercised deterministically.
func WithThrottle(d time.Duration) Option { return func(o *Options) { o.Throttle = d } }

// WithObserver installs a sweep engine observer: obs.ChunkDone is called
// once per completed chunk with the worker index, the tuples covered,
// and the chunk's wall-clock duration. Implementations must be safe for
// concurrent use. The default (nil) pays one branch per chunk and
// nothing per tuple — the no-op cost rule the observability layer is
// built on.
func WithObserver(obs sweep.Observer) Option { return func(o *Options) { o.Observer = obs } }

// WithExecTally directs execution-tier counters into t: the memoized
// tiers count snapshot captures, replays, and invalidation fallbacks;
// the batch tier counts strides, lanes (utilization of the configured
// width), and lanes lost to branch divergence. Counters accumulate
// per-worker and uncontended (see core.ExecTally); nil — the default —
// keeps the execution hot paths entirely unobserved.
func WithExecTally(t *core.ExecTally) Option { return func(o *Options) { o.Exec = t } }

// Run decides the Spec's verdict over its domain, sweeping in parallel and
// honouring ctx: cancellation stops every worker within one chunk and
// returns ctx's error. Run is the only code path in the repository that
// executes verdicts — the spm CLI, the v2 HTTP service, and the
// experiment tables all reduce to it. Every kind is one enumeration pass
// over the range, so WithProgress and WithCommit count its tuples; a
// Maximality verdict also decides the mechanism's soundness in that pass,
// exactly as a Soundness Run over the same range would. The
// verdict, witnesses included, does not depend on the worker count,
// stride width or schedule (see core.CheckSoundnessContext and
// core.CheckMaximalityContext).
func Run(ctx context.Context, spec Spec, opts ...Option) (Verdict, error) {
	o := Options{Compiled: true, Memo: true, MemoStack: true}
	for _, opt := range opts {
		opt(&o)
	}
	if spec.Mechanism == nil {
		return Verdict{Kind: spec.Kind}, fmt.Errorf("%w: nil Mechanism", ErrBadSpec)
	}
	if spec.Shard.Offset < 0 || spec.Shard.Count < 0 {
		return Verdict{Kind: spec.Kind}, fmt.Errorf("%w: negative shard offset or count", ErrBadSpec)
	}
	if spec.Shard.Offset > math.MaxInt || spec.Shard.Count > math.MaxInt {
		return Verdict{Kind: spec.Kind}, fmt.Errorf("%w: shard bounds overflow int", ErrBadSpec)
	}
	if spec.Observation.Render == nil {
		spec.Observation = core.ObserveValue
	}
	batch := o.Batch
	if batch <= 0 {
		batch = DefaultBatch
	}
	sharded := !spec.Shard.IsZero()
	var commit func(done int)
	if o.Commit != nil {
		fn := o.Commit
		commit = func(done int) { fn(int64(done)) }
	}
	cc := core.CheckConfig{
		Config: sweep.Config{
			Workers:  o.Workers,
			Chunk:    o.Chunk,
			Offset:   int(spec.Shard.Offset),
			Count:    int(spec.Shard.Count),
			Progress: o.Progress,
			Commit:   commit,
			Throttle: o.Throttle,
			Observer: o.Observer,
		},
		Interpreted:  !o.Compiled,
		NoMemo:       !o.Memo,
		NoStack:      !o.MemoStack,
		CollectViews: sharded,
		Batch:        batch,
		Exec:         o.Exec,
	}
	v := Verdict{Kind: spec.Kind, Mechanism: spec.Mechanism.Name(), Observation: spec.Observation.ObsName, Shard: spec.Shard}
	switch spec.Kind {
	case Soundness:
		if spec.Policy == nil {
			return v, fmt.Errorf("%w: soundness needs a Policy", ErrBadSpec)
		}
		rep, err := core.CheckSoundnessContext(ctx, spec.Mechanism, spec.Policy, spec.Domain, spec.Observation, cc)
		if err != nil {
			return v, err
		}
		v.setSoundness(rep)
		return v, nil
	case Maximality:
		if spec.Policy == nil {
			return v, fmt.Errorf("%w: maximality needs a Policy", ErrBadSpec)
		}
		if spec.Program == nil {
			return v, fmt.Errorf("%w: maximality needs the reference Program", ErrBadSpec)
		}
		rep, err := core.CheckMaximalityContext(ctx, spec.Mechanism, spec.Program, spec.Policy, spec.Domain, spec.Observation, cc)
		if err != nil {
			return v, err
		}
		v.setSoundness(rep.Soundness)
		v.Program = rep.Program
		v.Maximal = rep.Maximal
		v.Witness = rep.Witness
		v.Reason = rep.Reason
		v.Classes = rep.Classes
		return v, nil
	case PassCount:
		n, err := core.PassCountContext(ctx, spec.Mechanism, spec.Domain, cc)
		if err != nil {
			return v, err
		}
		lo, hi, err := cc.Bounds(sweep.Size(spec.Domain))
		if err != nil {
			return v, err
		}
		v.Checked = hi - lo
		v.Passes = n
		return v, nil
	default:
		return v, fmt.Errorf("%w: unknown kind %v", ErrBadSpec, spec.Kind)
	}
}

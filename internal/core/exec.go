package core

import (
	"context"
	"errors"
	"sync"

	"spm/internal/flowchart"
	"spm/internal/sweep"
)

// BatchRunFunc evaluates a mechanism on one innermost-axis stride of the
// sweep — the one runner type every checker executes through; a scalar
// run is a stride of one lane. input is the first tuple of the stride,
// last the innermost coordinate of each of its len(last) lanes (last[0]
// equals input's last element), and out receives one Outcome per lane.
// The zero-arity domain is one call with nil input and last and a
// one-slot out. A runner may scribble input's last element but must
// restore it: the next mechanism of the stride reads it. carry carries
// the sweep engine's carry-depth hint (sweep.BatchFunc): the number of
// leading coordinates of input unchanged since the previous call on this
// worker, so carry == len(input)-1 means a snapshot recorded on the
// previous stride of the same row still applies and one capture feeds
// every lane, and a shallower carry tells the snapshot-stack tier which
// per-axis captures survive. The first error in lane order is returned —
// the same error a scalar enumeration of the stride would have hit first.
type BatchRunFunc func(input []int64, last []int64, carry int, out []Outcome) error

// BatchRunnerProvider lets a mechanism supply its own per-worker runners.
// The executor consults it before compiling on demand, so a compile-cache
// entry (internal/service) skips parse, instrument, and Compile and goes
// straight to its compiled runners. BatchRunners returns nil when the
// mechanism cannot execute at the requested width; that mechanism alone
// then runs lane by lane through Mechanism.Run.
type BatchRunnerProvider interface {
	Mechanism
	// BatchRunners returns a factory producing one BatchRunFunc per sweep
	// worker, each owning its lanes, register file, and snapshot stack,
	// for strides of up to width lanes (width 1 is a one-lane stride on
	// the same kernels). A per-worker flowchart.SnapshotStack (per-axis
	// captures and constant suffixes) answers the first lane of each
	// fresh stride, and the remaining lanes resume from its innermost
	// capture. memo and stack are ignored: the snapshot stack always
	// runs. They stay in the signature until the benchmark module stops
	// passing them.
	// tally, when non-nil, receives each worker's execution-tier counters
	// (one ExecTally.Part per runner); nil disables counting.
	BatchRunners(width int, memo, stack bool, tally *ExecTally) func() BatchRunFunc
}

// outcomeOf lifts an engine result into the mechanism-level Outcome.
func outcomeOf(res flowchart.Result) Outcome {
	return Outcome{Value: res.Value, Steps: res.Steps, Violation: res.Violation, Notice: res.Notice}
}

// batchRunner is the per-worker executor over compiled code, at every
// width. Lane 0 of each fresh stride runs through a per-worker snapshot
// stack — per-axis captures and constant-suffix pruning apply to it —
// and the remaining lanes (and every continuation stride of the same
// row) resume in lockstep from the stack's innermost capture; a constant
// answer replicates to the whole stride without executing a lane. Lanes
// with no usable capture run whole from instruction zero. The nullary
// domain's one tuple has nothing to stride over or memoize and runs
// whole on RunReuse. Outcomes are exactly RunReuse's for every tuple.
func batchRunner(c *flowchart.Compiled, maxSteps int64, width int, part *ExecPart) BatchRunFunc {
	lanes, err := c.NewLanes(width)
	if err != nil {
		// Factories probe NewLanes before handing out runners; reaching
		// here means the probe was skipped, so fail loudly per call.
		return func([]int64, []int64, int, []Outcome) error { return err }
	}
	results := make([]flowchart.Result, width)
	regs := make([]int64, c.Slots())
	st := c.NewSnapshotStack()
	var prev flowchart.BatchStats
	runStack := func(input []int64, last []int64, carry int, res []flowchart.Result) error {
		n := len(last)
		k := len(input)
		if carry >= k-1 {
			// Continuation stride of the current row: the whole stride
			// resumes from the stack's innermost capture.
			err := c.RunBatchFromStack(lanes, st, last, maxSteps, res)
			if err == nil {
				part.stackOp(flowchart.StackOp{Kind: flowchart.StackReplay, Depth: k - 1})
				return nil
			}
			if !errors.Is(err, flowchart.ErrNoSnapshot) {
				return err
			}
			// No usable capture (recording run died before reaching the
			// innermost axis): fall through to the fresh path.
		}
		r0, op, err := st.Run(input, carry, maxSteps)
		if err != nil {
			return err
		}
		part.stackOp(op)
		res[0] = r0
		if n == 1 {
			return nil
		}
		if op.Kind == flowchart.StackConstant {
			// The innermost axis is never read on this path: every lane
			// halts identically, no lockstep execution needed.
			for i := 1; i < n; i++ {
				res[i] = r0
			}
			return nil
		}
		if err := c.RunBatchFromStack(lanes, st, last[1:], maxSteps, res[1:]); err != nil {
			if !errors.Is(err, flowchart.ErrNoSnapshot) {
				return err
			}
			return c.RunBatch(lanes, input, last[1:], maxSteps, res[1:])
		}
		part.stackOp(flowchart.StackOp{Kind: flowchart.StackReplay, Depth: k - 1})
		return nil
	}
	return func(input []int64, last []int64, carry int, out []Outcome) error {
		if len(input) == 0 {
			r, err := c.RunReuse(regs, input, maxSteps)
			if err != nil {
				return err
			}
			out[0] = outcomeOf(r)
			return nil
		}
		res := results[:len(last)]
		if err := runStack(input, last, carry, res); err != nil {
			return err
		}
		if part != nil {
			st := lanes.Stats
			part.addBatch(st.Strides-prev.Strides, st.Lanes-prev.Lanes, st.Diverged-prev.Diverged)
			prev = st
		}
		for i := range res {
			out[i] = outcomeOf(res[i])
		}
		return nil
	}
}

// laneRunner evaluates m lane by lane through Mechanism.Run — the runner
// of mechanisms with no compiled form, and of every mechanism under
// Interpreted. It substitutes each lane's innermost coordinate into input
// and restores the original afterwards: the next mechanism of the same
// stride reads input as the stride's first tuple.
func laneRunner(m Mechanism) BatchRunFunc {
	return func(input []int64, last []int64, _ int, out []Outcome) error {
		var err error
		k := len(input)
		if k == 0 {
			out[0], err = m.Run(input)
			return err
		}
		first := input[k-1]
		for lane, v := range last {
			input[k-1] = v
			if out[lane], err = m.Run(input); err != nil {
				break
			}
		}
		input[k-1] = first
		return err
	}
}

// runnerFactory resolves the per-worker runner factory for m at the
// configured width, one mechanism at a time: a BatchRunnerProvider (a
// compile-cache entry in internal/service) supplies its own runners, a
// Program is compiled on demand, and anything else — or anything at all
// under Interpreted, or a program whose batch form cannot be built — runs
// lane by lane through Mechanism.Run.
func (cc CheckConfig) runnerFactory(m Mechanism, width int) func() BatchRunFunc {
	if !cc.Interpreted {
		var f func() BatchRunFunc
		switch mm := m.(type) {
		case BatchRunnerProvider:
			f = mm.BatchRunners(width, true, true, cc.Exec)
		case *Program:
			if cm, err := CompileMechanism(mm); err == nil {
				f = cm.BatchRunners(width, true, true, cc.Exec)
			}
		}
		if f != nil {
			return f
		}
	}
	return func() BatchRunFunc { return laneRunner(m) }
}

// strideWidth is the stride width sweepOutcomes runs dom at: the cap
// batch clamped to the innermost axis length, since no stride spans more
// than one odometer row, and never below one lane (the nullary domain's
// single tuple is one such lane).
func strideWidth(dom Domain, batch int) int {
	if len(dom) == 0 {
		return 1
	}
	return max(min(batch, len(dom[len(dom)-1])), 1)
}

// strideFunc is the fold the checkers hand to sweepOutcomes, called once
// per stride: input is the stride's first tuple and last the innermost
// coordinate of each of its lanes (nil for the nullary domain's single
// tuple), as in sweep.BatchFunc, and outs[i][lane] is mechs[i]'s outcome
// on that lane; every outs[i] has one entry per lane. input is the
// engine's reused buffer (copy to retain) and outs is reused between
// calls.
type strideFunc func(worker int, input, last []int64, outs [][]Outcome) error

// sweepOutcomes is the execution seam every checker enumerates through: it
// sweeps dom once in innermost-axis strides (sweep.RunBatchContext), lets
// each mechanism in mechs evaluate the whole stride on its own runner
// (see runnerFactory), then hands the stride and its outcome columns to
// fold — the fold never knows the width or the tier. cc.Batch is a cap:
// strides, outcome columns and runners are sized to at most one odometer
// row (strideWidth). The differential suites pin every width and tier to
// byte-identical verdicts.
func sweepOutcomes(ctx context.Context, dom Domain, cc CheckConfig, mechs []Mechanism, fold strideFunc) error {
	width := strideWidth(dom, cc.Batch)
	// The runners count into a scope of the tally, folded and dropped
	// once every worker has stopped.
	cc.Exec = cc.Exec.scope()
	defer cc.Exec.retire()
	factories := make([]func() BatchRunFunc, len(mechs))
	for i, m := range mechs {
		factories[i] = cc.runnerFactory(m, width)
	}
	type wstate struct {
		runs    []BatchRunFunc
		outCols [][]Outcome
		outs    [][]Outcome
	}
	// A worker's runners are built on its first stride, so a worker the
	// sweep never starts costs nothing. Factories are called one at a
	// time, as a BatchRunnerProvider may expect.
	var mu sync.Mutex
	states := make([]wstate, cc.ResolvedWorkers(sweep.Size(dom)))
	return sweep.RunBatchContext(ctx, dom, cc.Config, width, func(w int, input []int64, last []int64, carry int) error {
		s := &states[w]
		if s.runs == nil {
			mu.Lock()
			s.runs = make([]BatchRunFunc, len(factories))
			s.outCols = make([][]Outcome, len(factories))
			s.outs = make([][]Outcome, len(factories))
			for i := range factories {
				s.runs[i] = factories[i]()
				s.outCols[i] = make([]Outcome, width)
			}
			mu.Unlock()
		}
		n := max(len(last), 1)
		for i, run := range s.runs {
			s.outs[i] = s.outCols[i][:n]
			if err := run(input, last, carry, s.outs[i]); err != nil {
				return err
			}
		}
		return fold(w, input, last, s.outs)
	})
}

package core

import (
	"fmt"

	"spm/internal/flowchart"
)

// CompiledMechanism is a flowchart-backed Mechanism bound to its compiled
// form: Compile runs exactly once, at construction, and both Run and the
// sweep engine's per-worker runners execute the slot-indexed code. It is
// the unit the content-addressed compile cache stores.
type CompiledMechanism struct {
	pm   *Program
	code *flowchart.Compiled
}

// CompileMechanism lowers the flowchart behind pm once and binds the result.
func CompileMechanism(pm *Program) (*CompiledMechanism, error) {
	code, err := pm.P.Compile()
	if err != nil {
		return nil, fmt.Errorf("core: compiling %q: %w", pm.P.Name, err)
	}
	return &CompiledMechanism{pm: pm, code: code}, nil
}

// Source returns the wrapped program mechanism.
func (c *CompiledMechanism) Source() *Program { return c.pm }

// Name implements Mechanism.
func (c *CompiledMechanism) Name() string { return c.pm.Name() }

// Arity implements Mechanism.
func (c *CompiledMechanism) Arity() int { return c.pm.Arity() }

// Run implements Mechanism on the compiled form. It allocates a register
// file per call; enumeration loops should go through BatchRunners instead.
func (c *CompiledMechanism) Run(input []int64) (Outcome, error) {
	res, err := c.code.Run(input, c.pm.MaxSteps)
	if err != nil {
		return Outcome{}, err
	}
	return outcomeOf(res), nil
}

// BatchRunners implements BatchRunnerProvider: each worker gets private
// state over the shared compiled code — at width 1 a snapshot stack (or,
// without stack, a register file and single execution snapshot) that
// replays only the instructions after the first read of the shallowest
// changed input; wider, structure-of-arrays lanes that execute one
// instruction across width tuples at a time. Returns nil if width ≥ 2
// and the program's batch form cannot be built.
func (c *CompiledMechanism) BatchRunners(width int, memo, stack bool, tally *ExecTally) func() BatchRunFunc {
	if width > 1 {
		if _, err := c.code.NewLanes(width); err != nil {
			return nil
		}
	}
	return func() BatchRunFunc { return batchRunner(c.code, c.pm.MaxSteps, width, memo, stack, tally.Part()) }
}

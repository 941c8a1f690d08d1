package core

import (
	"testing"

	"spm/internal/flowchart"
)

// TestExecTallyRetiresSweepParts: a sweep scope's parts count in the root
// tally while the sweep runs, and retiring the scope folds them into the
// root's totals and drops them; parts registered outside a sweep stay.
func TestExecTallyRetiresSweepParts(t *testing.T) {
	var tally ExecTally
	outside := tally.Part()
	outside.stackOp(flowchart.StackOp{Kind: flowchart.StackConstant})
	sweep := tally.scope()
	a, b := sweep.Part(), sweep.Part()
	a.stackOp(flowchart.StackOp{Kind: flowchart.StackFull})
	b.stackOp(flowchart.StackOp{Kind: flowchart.StackReplay, Depth: 2})
	b.addBatch(1, 16, 3)
	want := ExecCounts{StackFull: 1, StackConstants: 1, StackReplays: 1, BatchStrides: 1, BatchLanes: 16, BatchDiverged: 3}
	want.StackReplayDepth[2] = 1
	if got := tally.Counts(); got != want {
		t.Errorf("counts in flight = %+v, want %+v", got, want)
	}
	if n := tally.Parts(); n != 3 {
		t.Errorf("%d parts in flight, want 3", n)
	}
	sweep.retire()
	if got := tally.Counts(); got != want {
		t.Errorf("counts after the sweep = %+v, want %+v", got, want)
	}
	if n := tally.Parts(); n != 1 {
		t.Errorf("%d parts after the sweep, want the 1 registered outside it", n)
	}
	outside.stackOp(flowchart.StackOp{Kind: flowchart.StackConstant})
	want.StackConstants++
	if got := tally.Counts(); got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
	var none *ExecTally
	none.scope().retire()
	if none.Part() != nil || none.Parts() != 0 {
		t.Error("a nil tally registered a part")
	}
}

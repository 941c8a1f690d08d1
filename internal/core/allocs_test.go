package core

import (
	"context"
	"testing"

	"spm/internal/flowchart"
	"spm/internal/sweep"
)

// rowsProg reads every input, so its odometer rows are distinct states at
// the innermost capture point, except that every a == 0 row zeroes b
// first and collapses onto one state: a cache keyed on row state would
// keep growing with the rows here, which the stride tier must not.
const rowsProg = `program rows
inputs a b c
    if a == 0 goto Z else N
Z:  b := 0
    goto N
N:  y := a * b + c
    halt
`

// TestStackStrideAllocsIndependentOfRows pins that the snapshot-stack
// tier at stride width 16 allocates per sweep, not per odometer row: a
// 40³ domain (1600 rows) costs no more allocations than a 20³ one (400
// rows), plus a small constant. The chunk size is fixed so the sweep's
// per-chunk buffers stay inside that constant.
func TestStackStrideAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cm, err := CompileMechanism(FromProgram(flowchart.MustParse(rowsProg)))
	if err != nil {
		t.Fatal(err)
	}
	cc := CheckConfig{Config: sweep.Config{Workers: 1, Chunk: 1 << 14}, Batch: 16}
	noop := func(int, []int64, []int64, [][]Outcome) error { return nil }
	allocs := func(n int64) float64 {
		dom := Grid(3, Range(0, n-1)...)
		return testing.AllocsPerRun(3, func() {
			if err := sweepOutcomes(context.Background(), dom, cc, []Mechanism{cm}, noop); err != nil {
				t.Fatal(err)
			}
		})
	}
	const slack = 64
	a20, a40 := allocs(20), allocs(40)
	t.Logf("%v allocations on 20³, %v on 40³", a20, a40)
	if a40 > a20+slack {
		t.Errorf("%v allocations on 40³, %v on 20³: the stride tier allocates per row", a40, a20)
	}
}

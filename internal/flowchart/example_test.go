package flowchart_test

import (
	"fmt"

	"spm/internal/flowchart"
)

// Compiling lowers a flowchart to slot-indexed code; Run executes it with
// the same semantics as the tree-walking interpreter.
func ExampleProgram_Compile() {
	p := flowchart.MustParse(`
program double
inputs x1
    y := x1 * 2
    halt
`)
	c, err := p.Compile()
	if err != nil {
		panic(err)
	}
	res, err := c.Run([]int64{21}, flowchart.DefaultMaxSteps)
	if err != nil {
		panic(err)
	}
	fmt.Println(res)
	// Output: 42 (steps=3)
}

// A sweep in odometer order varies the innermost input fastest. A
// SnapshotStack exploits that: the first Run records the execution state
// at the first instruction that touches x2, and each further x2 — carry 1,
// the leading coordinate unchanged — replays only the program tail, here
// skipping the x1-controlled loop entirely. A stride of the row resumes
// from the same capture in lockstep. Every replayed Result, including the
// step count, is exactly what a fresh run would produce.
func ExampleSnapshotStack() {
	p := flowchart.MustParse(`
program lateread
inputs x1 x2
    i := x1
Loop: if i == 0 goto Done else Body
Body: i := i - 1
      goto Loop
Done: y := x2
      halt
`)
	c, err := p.Compile()
	if err != nil {
		panic(err)
	}
	st := c.NewSnapshotStack()
	for i, x2 := range []int64{10, 11, 12} {
		carry := 1
		if i == 0 {
			carry = 0
		}
		res, op, err := st.Run([]int64{3, x2}, carry, flowchart.DefaultMaxSteps)
		if err != nil {
			panic(err)
		}
		fmt.Println(res, "--", op.Kind)
	}

	lanes, err := c.NewLanes(2)
	if err != nil {
		panic(err)
	}
	out := make([]flowchart.Result, 2)
	if err := c.RunBatchFromStack(lanes, st, []int64{13, 14}, flowchart.DefaultMaxSteps, out); err != nil {
		panic(err)
	}
	fmt.Println(out)
	// Output:
	// 10 (steps=11) -- full
	// 11 (steps=11) -- replay
	// 12 (steps=11) -- replay
	// [13 (steps=11) 14 (steps=11)]
}

package flowchart

import "testing"

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(progE3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrint(b *testing.B) {
	p := MustParse(progE3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Print(p)
	}
}

func BenchmarkInterpret(b *testing.B) {
	p := MustParse(`
inputs x
Loop: if x == 0 goto Done else Body
Body: x := x - 1
      goto Loop
Done: y := 1
      halt
`)
	in := []int64{256}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunBudget(in, DefaultMaxSteps, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompiledRun(b *testing.B) {
	p := MustParse(`
inputs x
Loop: if x == 0 goto Done else Body
Body: x := x - 1
      goto Loop
Done: y := 1
      halt
`)
	c, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	in := []int64{256}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(in, DefaultMaxSteps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	p := MustParse(progE3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Compile(); err != nil {
			b.Fatal(err)
		}
	}
}

// progPool has the shapes of the benchmark's bulk program pool: a counted
// loop, % and const⊕var arithmetic, nested ite, compare decisions, and a
// late read of the innermost input that splits the lanes.
const progPool = `
program pool
inputs x1 x2 x3
    lc1 := 3
L1: if lc1 > 0 goto B2 else D3
B2: r0 := -2 * x1 + x2 % 4
    r1 := ite(x2 + -1 == 2 - r0, r0, x1)
    if 3 * r1 != x1 + -2 goto T4 else F5
T4: r2 := (1 - r1) % 4
    y := y + ite(-2 * r0 < r2, 3 % 4, x2)
    lc1 := lc1 - 1
    goto L1
F5: r2 := r2 - 1
    lc1 := lc1 - 1
    goto L1
D3: y := (y - r2) % 4 + x3 * 2
    if x3 % 4 <= 1 goto H else H2
H:  halt
H2: y := ite(x3 < 2, y, -y)
    halt
`

// BenchmarkRunBatch times one 16-lane stride of progPool from scratch and
// reports the cost per lane.
func BenchmarkRunBatch(b *testing.B) { benchRunBatch(b, 16) }

// BenchmarkRunBatchRow times one 40-lane stride of progPool from scratch,
// the width of one bulk odometer row swept as a single stride, and
// reports the cost per lane.
func BenchmarkRunBatchRow(b *testing.B) { benchRunBatch(b, 40) }

func benchRunBatch(b *testing.B, width int) {
	c, err := MustParse(progPool).Compile()
	if err != nil {
		b.Fatal(err)
	}
	lanes, err := c.NewLanes(width)
	if err != nil {
		b.Fatal(err)
	}
	last := make([]int64, width)
	for i := range last {
		last[i] = int64(i) - 4
	}
	out := make([]Result, len(last))
	in := []int64{0, 0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in[0], in[1] = int64(i%5), int64(i%7-3)
		if err := c.RunBatch(lanes, in, last, DefaultMaxSteps, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(last)), "ns/lane")
}

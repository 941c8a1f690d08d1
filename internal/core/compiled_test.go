package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"spm/internal/flowchart"
	"spm/internal/sweep"
)

const compiledTestProg = `
program ctp
inputs x1 x2
    r := x1 * 2
    if x2 == 0 goto A else B
A:  y := r
    halt
B:  y := x2 + 1
    halt
`

func TestCompiledMechanismMatchesInterpreter(t *testing.T) {
	p := flowchart.MustParse(compiledTestProg)
	pm := FromProgram(p)
	cm, err := CompileMechanism(pm)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Name() != pm.Name() || cm.Arity() != pm.Arity() {
		t.Fatalf("identity mismatch: %q/%d vs %q/%d", cm.Name(), cm.Arity(), pm.Name(), pm.Arity())
	}
	dom := Grid(2, -2, -1, 0, 1, 2, 3)
	if err := dom.Enumerate(func(input []int64) error {
		want, err := pm.Run(input)
		if err != nil {
			return err
		}
		got, err := cm.Run(input)
		if err != nil {
			return err
		}
		if got != want {
			t.Errorf("Run(%v) = %v, want %v", input, got, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCompiledMechanismSweepVerdict checks that the sweep checkers accept a
// pre-compiled mechanism through the BatchRunnerProvider hook and produce
// the same verdict as the interpreted path, at the scalar width and wider.
func TestCompiledMechanismSweepVerdict(t *testing.T) {
	p := flowchart.MustParse(compiledTestProg)
	pm := FromProgram(p)
	cm, err := CompileMechanism(pm)
	if err != nil {
		t.Fatal(err)
	}
	pol := NewAllow(2, 2)
	dom := Grid(2, 0, 1, 2)
	want, err := CheckSoundness(pm, pol, dom, ObserveValue)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{1, 4} {
		got, err := CheckSoundnessContext(context.Background(), cm, pol, dom, ObserveValue,
			CheckConfig{Config: sweep.Config{Workers: 4}, Batch: width})
		if err != nil {
			t.Fatal(err)
		}
		if got.Sound != want.Sound || got.Checked != want.Checked {
			t.Errorf("width %d: compiled sweep verdict (sound=%v checked=%d) != interpreted (sound=%v checked=%d)",
				width, got.Sound, got.Checked, want.Sound, want.Checked)
		}
	}
}

// countingProvider is a fake compile-cache entry: a BatchRunnerProvider
// that counts the per-worker runners the sweep asks it for and the widths
// it is asked at.
type countingProvider struct {
	*CompiledMechanism
	widths    []int
	factories int
}

func (c *countingProvider) BatchRunners(width int, memo, stack bool, tally *ExecTally) func() BatchRunFunc {
	c.widths = append(c.widths, width)
	inner := c.CompiledMechanism.BatchRunners(width, memo, stack, tally)
	return func() BatchRunFunc {
		c.factories++
		return inner()
	}
}

// TestRunnerFactoryPrefersProvider proves the sweep routes through the
// provider's BatchRunners — the compile-cache path — rather than
// recompiling or falling back to Mechanism.Run: the provider is asked once
// per sweep at the configured width clamped to the innermost axis (one
// lane at least) and hands out one runner per worker that sweeps — a
// worker builds its runner on its first stride, so one that finds no work
// left builds none — and the verdict is the interpreter's.
func TestRunnerFactoryPrefersProvider(t *testing.T) {
	p := flowchart.MustParse(compiledTestProg)
	pm := FromProgram(p)
	cm, err := CompileMechanism(pm)
	if err != nil {
		t.Fatal(err)
	}
	pol := NewAllow(2, 2)
	for _, c := range []struct {
		dom   Domain
		width func(batch int) int
	}{
		// A stride is at most one row: the cap is clamped to the 3-value row.
		{Grid(2, 0, 1, 2), func(batch int) int { return min(max(batch, 1), 3) }},
		// A one-value row clamps every cap to one lane.
		{Domain{{-1, 0, 1, 2}, {0}}, func(int) int { return 1 }},
	} {
		want, err := CheckSoundness(pm, pol, c.dom, ObserveValue)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{0, 2, 8, 4096} {
			cp := &countingProvider{CompiledMechanism: cm}
			swept := &workerSet{}
			got, err := CheckSoundnessContext(context.Background(), cp, pol, c.dom, ObserveValue,
				CheckConfig{Config: sweep.Config{Workers: 3, Chunk: 1, Observer: swept}, Batch: batch})
			if err != nil {
				t.Fatal(err)
			}
			if got.Sound != want.Sound || got.Checked != want.Checked {
				t.Errorf("%v batch %d: provider verdict (sound=%v checked=%d) != interpreted (sound=%v checked=%d)",
					c.dom, batch, got.Sound, got.Checked, want.Sound, want.Checked)
			}
			if wantWidth := c.width(batch); len(cp.widths) != 1 || cp.widths[0] != wantWidth {
				t.Errorf("%v batch %d: provider asked at widths %v, want [%d]", c.dom, batch, cp.widths, wantWidth)
			}
			if n := swept.count(); n < 1 || n > 3 || cp.factories != n {
				t.Errorf("%v batch %d: provider factory called %d times for %d sweeping workers of 3", c.dom, batch, cp.factories, n)
			}
		}
	}
}

// workerSet is a sweep.Observer that records which workers ran a chunk.
type workerSet struct {
	mu   sync.Mutex
	seen map[int]bool
}

func (s *workerSet) ChunkDone(worker, _ int, _ time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seen == nil {
		s.seen = map[int]bool{}
	}
	s.seen[worker] = true
}

func (s *workerSet) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.seen)
}

package sweep

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// The lending tests pin GOMAXPROCS at 2, so the process-wide budget is
// two sweep workers, and need two CPUs, since a run never uses more
// workers than runtime.NumCPU(). Their callbacks sleep per tuple (slow),
// so every run lasts well past lendAfter and could lend.
func slow() { time.Sleep(20 * time.Microsecond) }

func lendingProcs(t *testing.T) {
	t.Helper()
	if runtime.NumCPU() < 2 {
		t.Skip("lending needs two CPUs")
	}
	prev := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	if n := running.Load(); n != 0 {
		t.Fatalf("%d sweep workers still running from an earlier test", n)
	}
}

// workerObserver records, per worker index, how many chunks it completed.
type workerObserver struct {
	mu     sync.Mutex
	chunks map[int]int
}

func (o *workerObserver) ChunkDone(worker, tuples int, d time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.chunks == nil {
		o.chunks = make(map[int]int)
	}
	o.chunks[worker]++
}

func (o *workerObserver) count(worker int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.chunks[worker]
}

// hold starts a one-worker sweep that stays inside its first tuple until
// release is closed, and returns once that worker counts against the
// budget. The returned channel yields the sweep's error.
func hold(t *testing.T, release <-chan struct{}) <-chan error {
	t.Helper()
	entered := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		var once sync.Once
		done <- run(context.Background(), Grid3(4), Config{Workers: 1, Chunk: 1}, func(int, []int64) error {
			once.Do(func() { close(entered) })
			<-release
			return nil
		})
	}()
	<-entered
	return done
}

// TestLendingLoneRunUsesIdleCPU: a run alone in the process adds a helper,
// and still visits every tuple exactly once.
func TestLendingLoneRunUsesIdleCPU(t *testing.T) {
	lendingProcs(t)
	values := Grid3(16, 16)
	obs := &workerObserver{}
	var mu sync.Mutex
	seen := make(map[string]int)
	err := run(context.Background(), values, Config{Chunk: 4, Observer: obs}, func(_ int, in []int64) error {
		slow()
		mu.Lock()
		seen[key(in)]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs.count(1) == 0 {
		t.Fatalf("no helper joined a lone run: chunks by worker %v", obs.chunks)
	}
	want := sequential(values)
	if len(seen) != len(want) {
		t.Fatalf("visited %d distinct tuples, want %d", len(seen), len(want))
	}
	for _, k := range want {
		if seen[k] != 1 {
			t.Fatalf("tuple %s visited %d times, want 1", k, seen[k])
		}
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("%d sweep workers still counted after the run", n)
	}
}

// TestLendingNoHelperWhenBusy: with GOMAXPROCS sweep workers already
// running, a lending run keeps to its first worker.
func TestLendingNoHelperWhenBusy(t *testing.T) {
	lendingProcs(t)
	release := make(chan struct{})
	held := []<-chan error{hold(t, release), hold(t, release)}
	obs := &workerObserver{}
	if err := run(context.Background(), Grid3(16, 16), Config{Chunk: 4, Observer: obs}, func(int, []int64) error {
		slow()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	close(release)
	for _, done := range held {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if len(obs.chunks) != 1 || obs.count(0) != 64 {
		t.Fatalf("busy process: chunks by worker %v, want all 64 on worker 0", obs.chunks)
	}
}

// TestLendingHelperLeavesForNewRun: once another run starts, a lending
// run's helper completes at most the chunk it is in and leaves, and the
// run still visits every tuple exactly once.
func TestLendingHelperLeavesForNewRun(t *testing.T) {
	lendingProcs(t)
	values := Grid3(64, 64)
	obs := &workerObserver{}
	var visits sync.Map
	var helperStarted atomic.Bool
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), values, Config{Chunk: 8, Observer: obs}, func(w int, in []int64) error {
			if w == 1 {
				helperStarted.Store(true)
			}
			n, _ := visits.LoadOrStore(key(in), new(atomic.Int32))
			n.(*atomic.Int32).Add(1)
			slow()
			return nil
		})
	}()
	for !helperStarted.Load() {
		time.Sleep(time.Millisecond)
	}
	release := make(chan struct{})
	held := hold(t, release)
	before, main := obs.count(1), obs.count(0)
	// Let the first worker finish several more chunks; the helper may
	// finish only the chunk it was in.
	for obs.count(0) < main+5 {
		time.Sleep(time.Millisecond)
	}
	if after := obs.count(1); after > before+1 {
		t.Errorf("helper ran %d more chunks after a new run started, want at most 1", after-before)
	}
	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	total := 0
	visits.Range(func(_, n any) bool {
		if c := n.(*atomic.Int32).Load(); c != 1 {
			t.Errorf("tuple visited %d times", c)
		}
		total++
		return true
	})
	if total != Size(values) {
		t.Errorf("visited %d distinct tuples, want %d", total, Size(values))
	}
}

// TestLendingCancelBoundedByChunk: cancellation stops a lending run's
// workers within one chunk each.
func TestLendingCancelBoundedByChunk(t *testing.T) {
	lendingProcs(t)
	const chunk = 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visited, atCancel atomic.Int64
	err := run(ctx, Grid3(100, 100), Config{Chunk: chunk}, func(int, []int64) error {
		slow()
		if visited.Add(1) == 5*chunk {
			atCancel.Store(visited.Load())
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	bound := atCancel.Load() + int64(runtime.NumCPU()*chunk)
	if got := visited.Load(); got > bound {
		t.Errorf("visited %d tuples after cancel at %d; bound is %d (one chunk per worker)", got, atCancel.Load(), bound)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("%d sweep workers still counted after a cancelled run", n)
	}
}

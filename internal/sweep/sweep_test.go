package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// sequential computes the reference multiset of tuples in Enumerate order.
func sequential(values [][]int64) []string {
	var out []string
	if len(values) == 0 {
		return []string{key(nil)}
	}
	for _, vs := range values {
		if len(vs) == 0 {
			return nil
		}
	}
	idx := make([]int, len(values))
	buf := make([]int64, len(values))
	for {
		for i := range values {
			buf[i] = values[i][idx[i]]
		}
		out = append(out, key(buf))
		j := len(values) - 1
		for j >= 0 {
			idx[j]++
			if idx[j] < len(values[j]) {
				break
			}
			idx[j] = 0
			j--
		}
		if j < 0 {
			return out
		}
	}
}

func key(in []int64) string { return fmt.Sprint(in) }

// run drives the engine one tuple per call: RunBatchContext at width 1,
// the one-lane stride every scalar checker sees.
func run(ctx context.Context, values [][]int64, cfg Config, fn func(worker int, input []int64) error) error {
	return runHint(ctx, values, cfg, func(w int, in []int64, _ int) error { return fn(w, in) })
}

// runHint is run with each one-tuple stride's carry-depth hint. It also
// checks the width-1 stride shape: last is exactly input's innermost
// coordinate.
func runHint(ctx context.Context, values [][]int64, cfg Config, fn func(worker int, input []int64, carry int) error) error {
	return RunBatchContext(ctx, values, cfg, 1, func(w int, in, last []int64, carry int) error {
		if len(in) > 0 && (len(last) != 1 || last[0] != in[len(in)-1]) {
			return fmt.Errorf("width-1 stride: input %v, last %v", in, last)
		}
		return fn(w, in, carry)
	})
}

// collect runs the engine and returns the multiset of visited tuples.
func collect(t *testing.T, values [][]int64, cfg Config) map[string]int {
	t.Helper()
	workers := cfg.Workers
	if workers <= 0 {
		workers = 64 // upper bound for per-worker buckets
	}
	buckets := make([]map[string]int, workers)
	for i := range buckets {
		buckets[i] = make(map[string]int)
	}
	if err := run(context.Background(), values, cfg, func(w int, in []int64) error {
		buckets[w][key(in)]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	merged := make(map[string]int)
	for _, b := range buckets {
		for k, n := range b {
			merged[k] += n
		}
	}
	return merged
}

func TestRunVisitsEveryTupleOnce(t *testing.T) {
	cases := [][][]int64{
		{{0, 1, 2}, {0, 1, 2}},
		{{5}},
		{{0, 1}, {7}, {-1, 0, 1, 2}},
		{{0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7}, {0, 1}},
	}
	for _, values := range cases {
		want := sequential(values)
		for _, cfg := range []Config{{}, {Workers: 1}, {Workers: 3, Chunk: 1}, {Workers: 4, Chunk: 7}, {Workers: 16, Chunk: 2}} {
			got := collect(t, values, cfg)
			if len(want) != total(got) {
				t.Fatalf("cfg %+v: visited %d tuples, want %d", cfg, total(got), len(want))
			}
			for _, k := range want {
				if got[k] != 1 {
					t.Errorf("cfg %+v: tuple %s visited %d times", cfg, k, got[k])
				}
			}
		}
	}
}

func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func TestRunEmptyProduct(t *testing.T) {
	calls := 0
	if err := run(context.Background(), [][]int64{{0, 1}, {}}, Config{Workers: 4}, func(int, []int64) error {
		calls++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("empty product visited %d tuples", calls)
	}
}

func TestRunNullaryProduct(t *testing.T) {
	var mu sync.Mutex
	var got [][]int64
	if err := run(context.Background(), nil, Config{Workers: 4}, func(_ int, in []int64) error {
		mu.Lock()
		got = append(got, append([]int64(nil), in...))
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("nullary product visited %v, want one empty tuple", got)
	}
}

func TestRunErrorStopsAndPropagates(t *testing.T) {
	values := [][]int64{{0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7}}
	boom := fmt.Errorf("boom")
	err := run(context.Background(), values, Config{Workers: 4, Chunk: 2}, func(_ int, in []int64) error {
		if in[0] == 3 && in[1] == 3 {
			return boom
		}
		return nil
	})
	if err == nil {
		t.Fatal("error not propagated")
	}
}

func TestRunWorkerIndexInRange(t *testing.T) {
	const workers = 5
	err := run(context.Background(), [][]int64{{0, 1, 2, 3}, {0, 1, 2, 3}}, Config{Workers: workers, Chunk: 1}, func(w int, _ []int64) error {
		if w < 0 || w >= workers {
			return fmt.Errorf("worker index %d out of range", w)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSize(t *testing.T) {
	for _, tc := range []struct {
		values [][]int64
		want   int
	}{
		{nil, 1},
		{[][]int64{{1, 2, 3}}, 3},
		{[][]int64{{1, 2}, {1, 2, 3}}, 6},
		{[][]int64{{1, 2}, {}}, 0},
	} {
		if got := Size(tc.values); got != tc.want {
			t.Errorf("Size(%v) = %d, want %d", tc.values, got, tc.want)
		}
	}
}

// TestRunRandomizedMatchesSequential is the engine-level property test:
// random shapes, random worker/chunk settings, exact multiset agreement
// with sequential enumeration.
func TestRunRandomizedMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(1975))
	for trial := 0; trial < 50; trial++ {
		k := 1 + r.Intn(4)
		values := make([][]int64, k)
		for i := range values {
			n := 1 + r.Intn(6)
			vs := make([]int64, n)
			base := int64(r.Intn(20) - 10)
			for j := range vs {
				vs[j] = base + int64(j) // distinct within a dimension so value tuples key uniquely
			}
			values[i] = vs
		}
		cfg := Config{Workers: 1 + r.Intn(8), Chunk: 1 + r.Intn(9)}
		want := sequential(values)
		got := collect(t, values, cfg)
		if total(got) != len(want) {
			t.Fatalf("trial %d cfg %+v: visited %d, want %d", trial, cfg, total(got), len(want))
		}
		for _, k := range want {
			if got[k] != 1 {
				t.Fatalf("trial %d cfg %+v: tuple %s visited %d times", trial, cfg, k, got[k])
			}
		}
	}
}

func TestRunOverflowingProduct(t *testing.T) {
	vals := make([]int64, 32)
	for i := range vals {
		vals[i] = int64(i)
	}
	values := make([][]int64, 13) // 32^13 = 2^65 overflows int64, let alone int
	for i := range values {
		values[i] = vals
	}
	err := run(context.Background(), values, Config{Workers: 2}, func(int, []int64) error { return nil })
	if err != ErrTooLarge {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
	if Size(values) != math.MaxInt {
		t.Errorf("Size should saturate at MaxInt, got %d", Size(values))
	}
}

func TestResolvedWorkers(t *testing.T) {
	if got := (Config{Workers: 8}).ResolvedWorkers(4); got != 4 {
		t.Errorf("workers clamped to size: got %d, want 4", got)
	}
	if got := (Config{Workers: 3}).ResolvedWorkers(100); got != 3 {
		t.Errorf("explicit workers: got %d, want 3", got)
	}
	if got := (Config{}).ResolvedWorkers(100); got < 1 {
		t.Errorf("default workers: got %d, want >= 1", got)
	}
}

func TestRunProgressReachesSize(t *testing.T) {
	values := [][]int64{{0, 1, 2, 3}, {0, 1, 2}, {0, 1, 2, 3, 4}}
	want := int64(4 * 3 * 5)
	for _, workers := range []int{1, 3, 8} {
		obs := &countObserver{}
		cfg := Config{Workers: workers, Chunk: 7, Observer: obs}
		if err := run(context.Background(), values, cfg, func(int, []int64) error { return nil }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := obs.tuples.Load(); got != want {
			t.Errorf("workers=%d: progress = %d, want %d", workers, got, want)
		}
	}
}

func TestRunProgressMonotoneDuringSweep(t *testing.T) {
	values := [][]int64{{0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7}}
	obs := &countObserver{}
	var sawPartial atomic.Bool
	cfg := Config{Workers: 4, Chunk: 4, Observer: obs}
	err := run(context.Background(), values, cfg, func(int, []int64) error {
		if p := obs.tuples.Load(); p > 0 && p < 64 {
			sawPartial.Store(true)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawPartial.Load() {
		t.Log("no partial progress observed (fast machine); counter still correct")
	}
	if got := obs.tuples.Load(); got != 64 {
		t.Errorf("final progress = %d, want 64", got)
	}
}

func TestRunNullaryProgress(t *testing.T) {
	obs := &countObserver{}
	if err := run(context.Background(), nil, Config{Observer: obs}, func(int, []int64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := obs.tuples.Load(); got != 1 {
		t.Errorf("nullary progress = %d, want 1", got)
	}
}

// TestRunContextCancelBoundedByChunk cancels mid-sweep and asserts every
// worker stops within one chunk: with the cancel fired from inside the
// callback, each of the W workers may finish the chunk it is on but must
// not claim another, so the visited count is bounded by visited-so-far
// plus W chunks.
func TestRunContextCancelBoundedByChunk(t *testing.T) {
	values := [][]int64{make([]int64, 100), make([]int64, 100)} // 10k tuples
	for i := range values[0] {
		values[0][i] = int64(i)
		values[1][i] = int64(i)
	}
	const workers, chunk = 4, 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visited atomic.Int64
	var atCancel atomic.Int64
	err := run(ctx, values, Config{Workers: workers, Chunk: chunk}, func(int, []int64) error {
		if visited.Add(1) == 5*chunk {
			atCancel.Store(visited.Load())
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	bound := atCancel.Load() + int64(workers*chunk)
	if got := visited.Load(); got > bound {
		t.Errorf("visited %d tuples after cancel at %d; bound is %d (one chunk per worker)",
			got, atCancel.Load(), bound)
	}
	if got := visited.Load(); got >= 10000 {
		t.Errorf("sweep ran to completion (%d tuples) despite cancellation", got)
	}
}

// TestRunContextCancelSingleWorker exercises the sequential path's
// per-chunk cancellation check.
func TestRunContextCancelSingleWorker(t *testing.T) {
	values := [][]int64{{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}} // 64 tuples
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visited int
	err := run(ctx, values, Config{Workers: 1, Chunk: 8}, func(int, []int64) error {
		visited++
		if visited == 8 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if visited != 8 {
		t.Errorf("visited %d tuples, want exactly the chunk in flight (8)", visited)
	}
}

// TestRunContextCancelAfterLastTupleSucceeds pins the completion rule: a
// cancellation that lands once every tuple has been visited loses the
// race, and the complete enumeration reports success.
func TestRunContextCancelAfterLastTupleSucceeds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	visited := 0
	err := run(ctx, [][]int64{{0, 1, 2}}, Config{Workers: 1, Chunk: 3}, func(int, []int64) error {
		visited++
		if visited == 3 {
			cancel()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("complete sweep failed: %v", err)
	}
	if visited != 3 {
		t.Fatalf("visited %d of 3", visited)
	}
}

// TestRunContextPreCancelled never calls the callback.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, [][]int64{{0, 1}}, Config{}, func(int, []int64) error {
		t.Error("callback ran under a cancelled context")
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextCallbackErrorBeatsCancel: fn errors take precedence.
func TestRunContextCallbackErrorBeatsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := fmt.Errorf("boom")
	err := run(ctx, [][]int64{{0, 1, 2, 3}}, Config{Workers: 2, Chunk: 1}, func(_ int, in []int64) error {
		cancel()
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the callback error", err)
	}
}

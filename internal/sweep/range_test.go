package sweep

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// rangeValues is a 4×4×4 product: big enough that shards cross odometer
// carries, small enough to enumerate by hand.
var rangeValues = [][]int64{{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}}

// collectRange runs the engine over cfg's range and returns the visited
// tuples as a multiset.
func collectRange(t *testing.T, values [][]int64, cfg Config) map[string]int {
	t.Helper()
	var mu sync.Mutex
	got := make(map[string]int)
	if err := run(context.Background(), values, cfg, func(w int, in []int64) error {
		mu.Lock()
		got[key(in)]++
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatalf("RunBatchContext: %v", err)
	}
	return got
}

func TestRunRangeVisitsExactSlice(t *testing.T) {
	ref := sequential(rangeValues)
	size := len(ref)
	cases := []struct {
		name           string
		offset, count  int
		wantLo, wantHi int
	}{
		{"whole", 0, 0, 0, size},
		{"prefix", 0, 10, 0, 10},
		{"middle", 17, 13, 17, 30},
		{"suffix-by-zero-count", 50, 0, 50, size},
		{"suffix-clamped", 60, 100, 60, size},
		{"offset-at-end", size, 5, size, size},
		{"offset-past-end", size + 7, 0, size, size},
		{"single", 33, 1, 33, 34},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			got := collectRange(t, rangeValues, Config{Workers: workers, Chunk: 3, Offset: tc.offset, Count: tc.count})
			want := ref[tc.wantLo:tc.wantHi]
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: visited %d distinct tuples, want %d", tc.name, workers, len(got), len(want))
			}
			for _, k := range want {
				if got[k] != 1 {
					t.Fatalf("%s workers=%d: tuple %s visited %d times, want 1", tc.name, workers, k, got[k])
				}
			}
		}
	}
}

func TestRunRangeShardsPartition(t *testing.T) {
	ref := sequential(rangeValues)
	size := len(ref)
	for _, nShards := range []int{1, 2, 3, 7, size} {
		union := make(map[string]int)
		base, rem := size/nShards, size%nShards
		offset := 0
		for i := 0; i < nShards; i++ {
			count := base
			if i < rem {
				count++
			}
			for k, n := range collectRange(t, rangeValues, Config{Workers: 2, Chunk: 2, Offset: offset, Count: count}) {
				union[k] += n
			}
			offset += count
		}
		if len(union) != size {
			t.Fatalf("%d shards: union has %d tuples, want %d", nShards, len(union), size)
		}
		for k, n := range union {
			if n != 1 {
				t.Fatalf("%d shards: tuple %s visited %d times across shards, want 1", nShards, k, n)
			}
		}
	}
}

func TestRunRangeProgressCountsSpan(t *testing.T) {
	obs := &countObserver{}
	got := collectRange(t, rangeValues, Config{Workers: 3, Chunk: 4, Offset: 5, Count: 21, Observer: obs})
	if len(got) != 21 {
		t.Fatalf("visited %d tuples, want 21", len(got))
	}
	if obs.tuples.Load() != 21 {
		t.Fatalf("progress = %d, want 21", obs.tuples.Load())
	}
}

func TestRunRangeNegativeBounds(t *testing.T) {
	for _, cfg := range []Config{{Offset: -1}, {Count: -1}} {
		err := run(context.Background(), rangeValues, cfg, func(int, []int64) error { return nil })
		if !errors.Is(err, ErrBadRange) {
			t.Fatalf("cfg %+v: err = %v, want ErrBadRange", cfg, err)
		}
	}
}

// decodeRange is the reference index set of cfg's range: every product
// index in [lo, hi) decoded directly in mixed radix (last position
// fastest), independent of the engine's odometer walk.
func decodeRange(t *testing.T, values [][]int64, cfg Config) map[string]int {
	t.Helper()
	lo, hi, err := cfg.Bounds(Size(values))
	if err != nil {
		t.Fatalf("Bounds: %v", err)
	}
	want := make(map[string]int)
	for pos := lo; pos < hi; pos++ {
		want[key(decode(values, pos))]++
	}
	return want
}

// decode returns the tuple at mixed-radix product index pos.
func decode(values [][]int64, pos int) []int64 {
	tuple := make([]int64, len(values))
	for i := len(values) - 1; i >= 0; i-- {
		tuple[i] = values[i][pos%len(values[i])]
		pos /= len(values[i])
	}
	return tuple
}

// TestRunHintVisitsSameIndexSet is the odometer-vs-strided regression:
// whatever chunking, sharding, and worker count the config picks, the
// hinted one-lane sweep must visit exactly the index set a direct
// mixed-radix decode of the range gives — same tuples, same multiplicity.
func TestRunHintVisitsSameIndexSet(t *testing.T) {
	cfgs := []Config{
		{Workers: 1, Chunk: 3},
		{Workers: 1, Chunk: 4},
		{Workers: 4, Chunk: 3},
		{Workers: 4, Chunk: 5, Offset: 7, Count: 29},
		{Workers: 2, Chunk: 1, Offset: 60, Count: 0},
		{Workers: 3, Chunk: 1024},
	}
	for _, cfg := range cfgs {
		plain := decodeRange(t, rangeValues, cfg)
		var mu sync.Mutex
		hinted := make(map[string]int)
		if err := runHint(context.Background(), rangeValues, cfg, func(w int, in []int64, carry int) error {
			mu.Lock()
			hinted[key(in)]++
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatalf("cfg %+v: RunBatchContext: %v", cfg, err)
		}
		if len(hinted) != len(plain) {
			t.Fatalf("cfg %+v: hinted visited %d distinct tuples, decoded %d", cfg, len(hinted), len(plain))
		}
		for k, n := range plain {
			if hinted[k] != n {
				t.Fatalf("cfg %+v: tuple %s visited %d times hinted, %d decoded", cfg, k, hinted[k], n)
			}
		}
	}
}

// TestRunHintInnerOnlyContract checks the innermost special case of the
// carry hint — the guarantee a stride resuming from the snapshot stack's
// innermost capture keys on: whenever carry == k-1 is reported, the
// worker's previous tuple differed only in the last coordinate. Aligned
// single-worker chunking additionally pins the exact number of
// fully-hinted tuples.
func TestRunHintInnerOnlyContract(t *testing.T) {
	k := len(rangeValues)
	for _, cfg := range []Config{
		{Workers: 1, Chunk: 4},
		{Workers: 1, Chunk: 3},
		{Workers: 4, Chunk: 5},
		{Workers: 2, Chunk: 7, Offset: 11, Count: 40},
	} {
		var mu sync.Mutex
		prev := make(map[int][]int64)
		hintCount := 0
		if err := runHint(context.Background(), rangeValues, cfg, func(w int, in []int64, carry int) error {
			mu.Lock()
			defer mu.Unlock()
			if carry == k-1 {
				hintCount++
				p, ok := prev[w]
				if !ok {
					t.Errorf("cfg %+v: worker %d hinted on its first tuple %v", cfg, w, in)
				} else {
					for i := 0; i < len(in)-1; i++ {
						if p[i] != in[i] {
							t.Errorf("cfg %+v: hint with outer coordinate changed: %v -> %v", cfg, p, in)
						}
					}
					if p[len(in)-1] == in[len(in)-1] {
						t.Errorf("cfg %+v: hint with innermost unchanged: %v -> %v", cfg, p, in)
					}
				}
			}
			prev[w] = append(prev[w][:0], in...)
			return nil
		}); err != nil {
			t.Fatalf("cfg %+v: RunBatchContext: %v", cfg, err)
		}
		if cfg.Workers == 1 && cfg.Chunk == 4 && cfg.Offset == 0 {
			// Chunks align with the 4-wide innermost axis: every row is one
			// chunk, hinting 3 of its 4 tuples.
			if want := 48; hintCount != want {
				t.Fatalf("aligned chunking hinted %d tuples, want %d", hintCount, want)
			}
		}
	}
}

// TestRunHintCarryDepthContract checks the full carry guarantee: every
// reported carry c means the worker's previous tuple (within its current
// chunk) agrees on coordinates [0, c). The axes of rangeValues hold
// distinct values, so the odometer's carry is also exact — coordinate c
// itself must have changed on every non-first tuple — and one
// whole-domain chunk at one worker pins the carry distribution of the
// 4×4×4 walk: 63 increments split 48/12/3 by stop digit, plus the fresh
// first tuple at carry 0.
func TestRunHintCarryDepthContract(t *testing.T) {
	k := len(rangeValues)
	for _, cfg := range []Config{
		{Workers: 1, Chunk: 1024},
		{Workers: 1, Chunk: 5},
		{Workers: 4, Chunk: 3},
		{Workers: 2, Chunk: 6, Offset: 9, Count: 41},
	} {
		var mu sync.Mutex
		prev := make(map[int][]int64)
		counts := make([]int, k)
		if err := runHint(context.Background(), rangeValues, cfg, func(w int, in []int64, carry int) error {
			mu.Lock()
			defer mu.Unlock()
			if carry < 0 || carry >= k {
				t.Errorf("cfg %+v: carry %d out of range [0, %d)", cfg, carry, k)
				return nil
			}
			counts[carry]++
			p, ok := prev[w]
			if ok {
				for i := 0; i < carry; i++ {
					if p[i] != in[i] {
						t.Errorf("cfg %+v: carry %d but coordinate %d changed: %v -> %v", cfg, carry, i, p, in)
					}
				}
				// A positive carry can only come from a mid-chunk odometer
				// increment (chunk-first tuples report 0), and the axes hold
				// distinct values, so the stop digit itself must have moved.
				if carry > 0 && p[carry] == in[carry] {
					t.Errorf("cfg %+v: carry %d but coordinate %d unchanged: %v -> %v", cfg, carry, carry, p, in)
				}
			} else if carry != 0 {
				t.Errorf("cfg %+v: worker %d first tuple %v reported carry %d, want 0", cfg, w, in, carry)
			}
			prev[w] = append(prev[w][:0], in...)
			return nil
		}); err != nil {
			t.Fatalf("cfg %+v: RunBatchContext: %v", cfg, err)
		}
		if cfg.Workers == 1 && cfg.Chunk == 1024 && cfg.Offset == 0 {
			if counts[0] != 4 || counts[1] != 12 || counts[2] != 48 {
				t.Fatalf("whole-domain chunk carry distribution = %v, want [4 12 48]", counts)
			}
		}
	}
}

// TestRunHintEmptyProduct: the zero-arity product is one empty tuple,
// reported as a fresh row.
func TestRunHintEmptyProduct(t *testing.T) {
	calls := 0
	if err := runHint(context.Background(), nil, Config{}, func(w int, in []int64, carry int) error {
		calls++
		if carry != 0 {
			t.Errorf("empty product reported carry %d, want 0", carry)
		}
		return nil
	}); err != nil {
		t.Fatalf("RunBatchContext: %v", err)
	}
	if calls != 1 {
		t.Fatalf("empty product visited %d times, want 1", calls)
	}
}

func TestBoundsClamp(t *testing.T) {
	cases := []struct {
		offset, count, size int
		lo, hi              int
	}{
		{0, 0, 64, 0, 64},
		{10, 20, 64, 10, 30},
		{60, 20, 64, 60, 64},
		{100, 5, 64, 64, 64},
		{10, 0, 64, 10, 64},
	}
	for _, tc := range cases {
		lo, hi, err := (Config{Offset: tc.offset, Count: tc.count}).Bounds(tc.size)
		if err != nil || lo != tc.lo || hi != tc.hi {
			t.Errorf("Bounds(%d) with offset=%d count=%d = (%d, %d, %v), want (%d, %d, nil)",
				tc.size, tc.offset, tc.count, lo, hi, err, tc.lo, tc.hi)
		}
	}
}

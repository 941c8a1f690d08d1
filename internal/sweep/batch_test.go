package sweep

import (
	"context"
	"errors"
	"testing"
)

// stride is one recorded BatchFunc call.
type stride struct {
	worker int
	prefix string
	last   []int64
	carry  int
}

// collectBatch runs the batch iterator and records every call per worker.
func collectBatch(t *testing.T, values [][]int64, cfg Config, width int) []stride {
	t.Helper()
	workers := cfg.Workers
	if workers <= 0 {
		workers = 64
	}
	buckets := make([][]stride, workers)
	if err := RunBatchContext(context.Background(), values, cfg, width, func(w int, input []int64, last []int64, carry int) error {
		s := stride{worker: w, carry: carry}
		if len(input) > 0 {
			s.prefix = key(input[:len(input)-1])
			s.last = append([]int64(nil), last...)
		}
		buckets[w] = append(buckets[w], s)
		// Exercise the documented liberty: callers may scribble input's
		// innermost coordinate while expanding lanes.
		if len(input) > 0 {
			input[len(input)-1] = -99
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var all []stride
	for _, b := range buckets {
		all = append(all, b...)
	}
	return all
}

// TestRunBatchVisitsEveryTupleOnce checks the batch iterator against the
// sequential reference at several widths and engine configs: every tuple
// exactly once, every stride within one odometer row (shared prefix,
// consecutive innermost values), never wider than width.
func TestRunBatchVisitsEveryTupleOnce(t *testing.T) {
	cases := [][][]int64{
		{{0, 1, 2}, {0, 1, 2}},
		{{5}},
		{{0, 1}, {7}, {-1, 0, 1, 2}},
		{{0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7}, {0, 1}},
	}
	for _, values := range cases {
		k := len(values)
		for _, width := range []int{1, 2, 3, 8, 100} {
			for _, cfg := range []Config{{}, {Workers: 1}, {Workers: 3, Chunk: 1}, {Workers: 4, Chunk: 7}, {Workers: 16, Chunk: 2}} {
				strides := collectBatch(t, values, cfg, width)
				got := make(map[string]int)
				inner := values[k-1]
				for _, s := range strides {
					if len(s.last) == 0 || len(s.last) > width {
						t.Fatalf("width %d cfg %+v: stride of %d lanes", width, cfg, len(s.last))
					}
					// Lanes must be consecutive innermost-axis values.
					start := -1
					for i, v := range inner {
						if v == s.last[0] {
							start = i
							break
						}
					}
					if start < 0 || start+len(s.last) > len(inner) {
						t.Fatalf("width %d cfg %+v: stride %v not a row slice of %v", width, cfg, s.last, inner)
					}
					for i, v := range s.last {
						if inner[start+i] != v {
							t.Fatalf("width %d cfg %+v: stride %v not consecutive in %v", width, cfg, s.last, inner)
						}
						got[s.prefix+" "+key([]int64{v})]++
					}
				}
				wantTotal := len(sequential(values))
				gotTotal := 0
				for tuple, n := range got {
					gotTotal += n
					if n != 1 {
						t.Fatalf("width %d cfg %+v: tuple %s visited %d times", width, cfg, tuple, n)
					}
				}
				if gotTotal != wantTotal {
					t.Fatalf("width %d cfg %+v: visited %d tuples, want %d", width, cfg, gotTotal, wantTotal)
				}
			}
		}
	}
}

// TestRunBatchStrideShapes pins the exact stride decomposition on a single
// worker: strides stop at chunk boundaries and odometer carries, and the
// carry hint is k-1 exactly for strides continuing the same row within the
// same chunk (the stop digit of the odometer otherwise) — the contract the
// memoized batch runner builds on.
func TestRunBatchStrideShapes(t *testing.T) {
	values := [][]int64{{0, 1}, {0, 1, 2, 3, 4, 5, 6}}
	t.Run("row-spanning-chunk", func(t *testing.T) {
		// Chunk 5 splits row 0 at position 5 and row 1 at position 10: a
		// stride never crosses either cut, and the cuts (plus the carry
		// into row 1) all reset innerOnly.
		strides := collectBatch(t, values, Config{Workers: 1, Chunk: 5}, 8)
		want := []stride{
			{prefix: "[0]", last: []int64{0, 1, 2, 3, 4}, carry: 0},
			{prefix: "[0]", last: []int64{5, 6}, carry: 0},
			{prefix: "[1]", last: []int64{0, 1, 2}, carry: 0},
			{prefix: "[1]", last: []int64{3, 4, 5, 6}, carry: 0},
		}
		checkStrides(t, strides, want)
	})
	t.Run("width-splits-row", func(t *testing.T) {
		// One chunk covers everything: rows split only by width, and the
		// continuation strides report the full carry k-1.
		strides := collectBatch(t, values, Config{Workers: 1, Chunk: 100}, 3)
		want := []stride{
			{prefix: "[0]", last: []int64{0, 1, 2}, carry: 0},
			{prefix: "[0]", last: []int64{3, 4, 5}, carry: 1},
			{prefix: "[0]", last: []int64{6}, carry: 1},
			{prefix: "[1]", last: []int64{0, 1, 2}, carry: 0},
			{prefix: "[1]", last: []int64{3, 4, 5}, carry: 1},
			{prefix: "[1]", last: []int64{6}, carry: 1},
		}
		checkStrides(t, strides, want)
	})
	t.Run("width-beyond-row", func(t *testing.T) {
		// Width larger than the row: one stride per row, clipped to the
		// carry.
		strides := collectBatch(t, values, Config{Workers: 1, Chunk: 100}, 64)
		want := []stride{
			{prefix: "[0]", last: []int64{0, 1, 2, 3, 4, 5, 6}, carry: 0},
			{prefix: "[1]", last: []int64{0, 1, 2, 3, 4, 5, 6}, carry: 0},
		}
		checkStrides(t, strides, want)
	})
	t.Run("carry-depth-between-rows", func(t *testing.T) {
		// Three axes in one chunk: a row change that stops at the middle
		// digit reports carry 1, one that wraps through to the outermost
		// reports 0 — per-axis snapshots above the stop digit survive.
		deep := [][]int64{{0, 1}, {0, 1}, {0, 1, 2}}
		strides := collectBatch(t, deep, Config{Workers: 1, Chunk: 100}, 64)
		want := []stride{
			{prefix: "[0 0]", last: []int64{0, 1, 2}, carry: 0},
			{prefix: "[0 1]", last: []int64{0, 1, 2}, carry: 1},
			{prefix: "[1 0]", last: []int64{0, 1, 2}, carry: 0},
			{prefix: "[1 1]", last: []int64{0, 1, 2}, carry: 1},
		}
		checkStrides(t, strides, want)
	})
}

func checkStrides(t *testing.T, got, want []stride) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d strides %v, want %d %v", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i].prefix != want[i].prefix || got[i].carry != want[i].carry || key(got[i].last) != key(want[i].last) {
			t.Fatalf("stride %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestRunBatchWidthOneMatchesHint checks that width-1 batching delivers
// exactly the scalar odometer walk on a single worker — the degenerate
// batch is the scalar sweep: tuples in mixed-radix order, each with the
// carry of the increment that produced it (the first differing
// coordinate, since every axis holds distinct values) and 0 at the first
// tuple of every chunk.
func TestRunBatchWidthOneMatchesHint(t *testing.T) {
	values := [][]int64{{0, 1, 2}, {4, 5}, {7, 8, 9}}
	cfg := Config{Workers: 1, Chunk: 4}
	type visit struct {
		tuple string
		carry int
	}
	var want, got []visit
	var prev []int64
	for pos := 0; pos < Size(values); pos++ {
		tuple := decode(values, pos)
		carry := 0
		if pos%cfg.Chunk != 0 {
			for carry < len(tuple) && tuple[carry] == prev[carry] {
				carry++
			}
		}
		want = append(want, visit{key(tuple), carry})
		prev = tuple
	}
	if err := RunBatchContext(context.Background(), values, cfg, 1, func(_ int, in []int64, last []int64, carry int) error {
		if len(last) != 1 || last[0] != in[len(in)-1] {
			t.Fatalf("width-1 stride: input %v, last %v", in, last)
		}
		got = append(got, visit{key(in), carry})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("reference walk has %d tuples, batch visited %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("visit %d: reference %+v, batch %+v", i, want[i], got[i])
		}
	}
}

// TestRunBatchNullaryProduct delivers the zero-arity product's single
// empty tuple as one nil/nil call.
func TestRunBatchNullaryProduct(t *testing.T) {
	calls := 0
	if err := RunBatchContext(context.Background(), nil, Config{Workers: 3}, 8, func(_ int, in []int64, last []int64, carry int) error {
		calls++
		if in != nil || last != nil || carry != 0 {
			t.Fatalf("nullary call: input %v, last %v, carry %v", in, last, carry)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("nullary product: %d calls, want 1", calls)
	}
}

// TestRunBatchErrorStopsAndPropagates pins the error contract on strides
// wider than one lane (TestRunErrorStopsAndPropagates covers width 1).
func TestRunBatchErrorStopsAndPropagates(t *testing.T) {
	boom := errors.New("boom")
	err := RunBatchContext(context.Background(), [][]int64{{0, 1, 2}, {0, 1, 2}}, Config{Workers: 2, Chunk: 1}, 2,
		func(_ int, in []int64, _ []int64, _ int) error {
			if in[0] == 1 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

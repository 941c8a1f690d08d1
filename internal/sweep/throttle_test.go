package sweep

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestThrottlePreservesEnumeration pins the straggler hook's contract:
// Throttle slows the sweep down but never changes which tuples are
// visited or how often — the throttled run is the unthrottled run, late.
func TestThrottlePreservesEnumeration(t *testing.T) {
	values := [][]int64{{0, 1, 2, 3}, {0, 1, 2, 3}}
	for _, workers := range []int{1, 4} {
		plain := collect(t, values, Config{Workers: workers, Chunk: 3})
		throttled := collect(t, values, Config{Workers: workers, Chunk: 3, Throttle: 100 * time.Microsecond})
		if len(throttled) != len(plain) {
			t.Fatalf("workers=%d: throttled visited %d tuples, plain %d", workers, len(throttled), len(plain))
		}
		for k, n := range plain {
			if throttled[k] != n {
				t.Fatalf("workers=%d: tuple %s visited %d times throttled, %d plain", workers, k, throttled[k], n)
			}
		}
	}
}

// TestThrottleObservesCancellation requires a throttled worker to stop
// mid-sleep when the context dies — the elastic coordinator's steal path
// cancels straggler jobs and must not wait out their throttle naps.
func TestThrottleObservesCancellation(t *testing.T) {
	values := [][]int64{{0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3, 4, 5, 6, 7}}
	ctx, cancel := context.WithCancel(context.Background())
	visited := 0
	start := time.Now()
	err := run(ctx, values, Config{Workers: 1, Chunk: 4, Throttle: time.Hour}, func(w int, in []int64) error {
		visited++
		if visited == 4 { // end of the first chunk; the next nap is 1h
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled throttled sweep returned %v", err)
	}
	if visited != 4 {
		t.Fatalf("visited %d tuples after cancel in first chunk's nap", visited)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation waited out the throttle: %v", elapsed)
	}
}

// TestThrottleFinalChunkFree pins the completion rule: the single-worker
// path skips the nap after the final chunk, so a fully-enumerated
// throttled sweep succeeds even if the context dies the instant the last
// tuple lands.
func TestThrottleFinalChunkFree(t *testing.T) {
	values := [][]int64{{0, 1, 2}}
	ctx, cancel := context.WithCancel(context.Background())
	visited := 0
	err := run(ctx, values, Config{Workers: 1, Chunk: 3, Throttle: time.Hour}, func(w int, in []int64) error {
		visited++
		if visited == 3 {
			cancel() // all tuples seen; no nap may follow
		}
		return nil
	})
	if err != nil {
		t.Fatalf("complete throttled sweep failed: %v", err)
	}
	if visited != 3 {
		t.Fatalf("visited %d of 3", visited)
	}
}

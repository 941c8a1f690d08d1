package sweep

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// countObserver sums ChunkDone callbacks; safe for concurrent use.
type countObserver struct {
	chunks atomic.Int64
	tuples atomic.Int64
}

func (o *countObserver) ChunkDone(worker, tuples int, d time.Duration) {
	o.chunks.Add(1)
	o.tuples.Add(int64(tuples))
}

func observerDomain() [][]int64 {
	return [][]int64{
		{0, 1, 2, 3},
		{0, 1, 2, 3},
		{0, 1, 2, 3, 4, 5, 6, 7},
	}
}

func TestObserverSeesEveryTuple(t *testing.T) {
	dom := observerDomain()
	size := Size(dom)
	for _, workers := range []int{1, 4} {
		obs := &countObserver{}
		cfg := Config{Workers: workers, Chunk: 16, Observer: obs}
		err := run(context.Background(), dom, cfg, func(worker int, input []int64) error { return nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := obs.tuples.Load(); got != int64(size) {
			t.Errorf("workers=%d: observer saw %d tuples, want %d", workers, got, size)
		}
		wantChunks := int64((size + 15) / 16)
		if got := obs.chunks.Load(); got != wantChunks {
			t.Errorf("workers=%d: observer saw %d chunks, want %d", workers, got, wantChunks)
		}
	}
}

func TestObserverShard(t *testing.T) {
	dom := observerDomain()
	obs := &countObserver{}
	cfg := Config{Workers: 2, Chunk: 8, Offset: 10, Count: 50, Observer: obs}
	if err := run(context.Background(), dom, cfg, func(worker int, input []int64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := obs.tuples.Load(); got != 50 {
		t.Errorf("observer saw %d tuples, want 50", got)
	}
}

func TestObserverEmptyProduct(t *testing.T) {
	obs := &countObserver{}
	err := run(context.Background(), nil, Config{Observer: obs}, func(worker int, input []int64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if obs.chunks.Load() != 1 || obs.tuples.Load() != 1 {
		t.Errorf("empty product observed %d chunks / %d tuples, want 1/1",
			obs.chunks.Load(), obs.tuples.Load())
	}
}

package sweep

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// collectCommits runs the sweep with a Commit hook and returns the commit
// sequence. The hook is called serialized, but guard with a mutex anyway so
// the race detector would catch a violation of that contract.
func collectCommits(t *testing.T, values [][]int64, cfg Config) []int {
	t.Helper()
	var mu sync.Mutex
	var commits []int
	cfg.Commit = func(done int) {
		mu.Lock()
		commits = append(commits, done)
		mu.Unlock()
	}
	err := run(context.Background(), values, cfg, func(worker int, input []int64) error { return nil })
	if err != nil {
		t.Fatalf("RunBatchContext: %v", err)
	}
	return commits
}

func checkMonotone(t *testing.T, commits []int, span int) {
	t.Helper()
	prev := 0
	for i, c := range commits {
		if c <= prev {
			t.Fatalf("commit %d = %d not strictly greater than previous %d (sequence %v)", i, c, prev, commits)
		}
		prev = c
	}
	if len(commits) == 0 || commits[len(commits)-1] != span {
		t.Fatalf("final commit != span %d: %v", span, commits)
	}
}

func TestCommitSingleWorker(t *testing.T) {
	values := Grid3(4, 4, 4)
	commits := collectCommits(t, values, Config{Workers: 1, Chunk: 7})
	checkMonotone(t, commits, 64)
	// One worker commits every chunk end in order: 7, 14, ..., 63, 64.
	for i, c := range commits[:len(commits)-1] {
		if want := (i + 1) * 7; c != want {
			t.Errorf("commit %d = %d, want %d", i, c, want)
		}
	}
}

func TestCommitMultiWorkerMonotoneContiguous(t *testing.T) {
	values := Grid3(5, 5, 5)
	for _, workers := range []int{2, 4, 8} {
		commits := collectCommits(t, values, Config{Workers: workers, Chunk: 3})
		checkMonotone(t, commits, 125)
		// Every commit is a chunk boundary of the range.
		for _, c := range commits {
			if c%3 != 0 && c != 125 {
				t.Errorf("workers=%d: commit %d not on a chunk boundary", workers, c)
			}
		}
	}
}

func TestCommitShardedRangeIsRangeRelative(t *testing.T) {
	values := Grid3(4, 4, 4)
	commits := collectCommits(t, values, Config{Workers: 3, Chunk: 5, Offset: 10, Count: 31})
	// Commits are relative to the range start, so they end at the span.
	checkMonotone(t, commits, 31)
}

func TestCommitEmptyProduct(t *testing.T) {
	commits := collectCommits(t, nil, Config{Workers: 2})
	if len(commits) != 1 || commits[0] != 1 {
		t.Fatalf("empty product commits = %v, want [1]", commits)
	}
}

func TestCommitStopsAtErrorPrefix(t *testing.T) {
	values := Grid3(4, 4, 4)
	boom := errors.New("boom")
	var mu sync.Mutex
	var commits []int
	seen := 0
	err := run(context.Background(), values, Config{Workers: 1, Chunk: 4, Commit: func(done int) {
		mu.Lock()
		commits = append(commits, done)
		mu.Unlock()
	}}, func(worker int, input []int64) error {
		seen++
		if seen > 20 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	for _, c := range commits {
		if c > 20 {
			t.Errorf("commit %d covers the erroring chunk", c)
		}
	}
}

func TestCommitCancelledPrefixIsResumable(t *testing.T) {
	values := Grid3(6, 6, 6)
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	last := 0
	visited := make(map[int]bool)
	err := run(ctx, values, Config{Workers: 4, Chunk: 2, Commit: func(done int) {
		mu.Lock()
		if done > 40 {
			cancel()
		}
		last = done
		mu.Unlock()
	}}, func(worker int, input []int64) error {
		idx := int(input[0])*36 + int(input[1])*6 + int(input[2])
		mu.Lock()
		visited[idx] = true
		mu.Unlock()
		return nil
	})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	// Everything below the committed prefix must really have been visited —
	// the property a crash-resume cursor depends on.
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < last; i++ {
		if !visited[i] {
			t.Fatalf("index %d below committed prefix %d was never visited", i, last)
		}
	}
}

// Grid3 builds a k-position domain where position i ranges over 0..ns[i]-1.
func Grid3(ns ...int) [][]int64 {
	out := make([][]int64, len(ns))
	for i, n := range ns {
		vs := make([]int64, n)
		for j := range vs {
			vs[j] = int64(j)
		}
		out[i] = vs
	}
	return out
}

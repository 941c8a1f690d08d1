package check_test

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"spm/internal/check"
	"spm/internal/core"
	"spm/internal/progen"
)

type chunkTally struct {
	chunks atomic.Int64
	tuples atomic.Int64
}

func (c *chunkTally) ChunkDone(worker, tuples int, d time.Duration) {
	c.chunks.Add(1)
	c.tuples.Add(int64(tuples))
}

// TestObserverAndTally pins the observability seams end to end through
// check.Run: the sweep observer must see every tuple exactly once, and
// the execution tally must account for the memo and batch tiers'
// activity — on one-lane strides and at the default width.
func TestObserverAndTally(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p := progen.Generate(r, progen.DefaultConfig(2))
	m := core.FromProgram(p)
	pol := core.NewAllow(2, 1)
	axis := []int64{-2, -1, 0, 1, 2, 3, 4, 5}
	dom := core.Domain{axis, axis}
	size := int64(len(axis) * len(axis))
	spec := check.Spec{Kind: check.Soundness, Mechanism: m, Policy: pol, Domain: dom}

	t.Run("scalar", func(t *testing.T) {
		obs := &chunkTally{}
		tally := &core.ExecTally{}
		v, err := check.Run(context.Background(), spec,
			check.WithWorkers(2), check.WithChunk(8), check.WithBatch(1),
			check.WithObserver(obs), check.WithExecTally(tally))
		if err != nil {
			t.Fatal(err)
		}
		if obs.tuples.Load() != size {
			t.Errorf("observer saw %d tuples, want %d (checked %d)", obs.tuples.Load(), size, v.Checked)
		}
		if obs.chunks.Load() != (size+7)/8 {
			t.Errorf("observer saw %d chunks, want %d", obs.chunks.Load(), (size+7)/8)
		}
		c := tally.Counts()
		if c.StackFull == 0 {
			t.Errorf("no full stack recordings: %+v", c)
		}
		// On one-lane strides every tuple is answered exactly once by the
		// stack: a full recording, a tail replay (a continuation stride
		// resumes from the innermost capture), or a constant suffix.
		if got := c.StackFull + c.StackReplays + c.StackConstants; got != size {
			t.Errorf("stack answers %d != %d tuples: %+v", got, size, c)
		}
		var depths int64
		for _, d := range c.StackReplayDepth {
			depths += d
		}
		if depths != c.StackReplays {
			t.Errorf("depth buckets sum to %d, want %d replays: %+v", depths, c.StackReplays, c)
		}
		if c.BatchLanes != c.BatchStrides || c.BatchLanes > c.StackReplays {
			t.Errorf("one-lane run recorded wider batch activity: %+v", c)
		}
	})

	t.Run("batch", func(t *testing.T) {
		obs := &chunkTally{}
		tally := &core.ExecTally{}
		_, err := check.Run(context.Background(), spec,
			check.WithWorkers(1), check.WithChunk(16),
			check.WithObserver(obs), check.WithExecTally(tally))
		if err != nil {
			t.Fatal(err)
		}
		if obs.tuples.Load() != size {
			t.Errorf("observer saw %d tuples, want %d", obs.tuples.Load(), size)
		}
		c := tally.Counts()
		// Stack composition runs lane 0 of each fresh stride through the
		// snapshot stack; every remaining tuple rides a batch lane (or a
		// constant replication). Stack answers count per stride, not per
		// lane, so the sum over-covers the domain.
		if c.BatchLanes+c.StackFull+c.StackReplays+c.StackConstants < size {
			t.Errorf("batch lanes + stack answers do not cover %d tuples: %+v", size, c)
		}
		if c.BatchStrides == 0 {
			t.Errorf("no batch strides recorded: %+v", c)
		}
		if c.StackFull == 0 {
			t.Errorf("no full stack recordings: %+v", c)
		}
	})

	t.Run("disabled", func(t *testing.T) {
		// The defaults must stay observation-free: nothing to assert but
		// that nil options run — the no-op cost rule's correctness half.
		if _, err := check.Run(context.Background(), spec, check.WithWorkers(2)); err != nil {
			t.Fatal(err)
		}
	})
}

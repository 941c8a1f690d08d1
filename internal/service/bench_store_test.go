package service

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"spm/internal/store"
)

// storeSweepProg mirrors the root-level 160k-tuple sweep fixture: a small
// loop on the outer input, a pass-through of the inner one.
const storeSweepProg = `
program sweepdemo
inputs x1 x2
    i := x1 & 127
Loop: if i == 0 goto Done else Body
Body: i := i - 1
      goto Loop
Done: y := x2
      halt
`

// storeSweepReq is a 160,000-tuple soundness check (400² grid), the same
// scale as BenchmarkBatchSweep's sweep (BENCH_batch.json).
func storeSweepReq() CheckRequest {
	dom := make([]int64, 400)
	for i := range dom {
		dom[i] = int64(i)
	}
	return CheckRequest{Program: storeSweepProg, Policy: "{2}", Raw: true, Domain: dom}
}

// BenchmarkStoreVerdict is the verdict-store trajectory: the same
// 160k-tuple submission cold (full sweep, checkpointing to the store),
// as a verdict-store hit (no sweep at all — the persisted verdict
// answers), and resumed from a mid-sweep checkpoint (half the domain
// re-swept). CI converts this to BENCH_store.json.
func BenchmarkStoreVerdict(b *testing.B) {
	req := storeSweepReq()

	b.Run("cold", func(b *testing.B) {
		b.ReportMetric(160000, "inputs/check")
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st, err := store.Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			s := New(Config{Runners: 1, Store: st})
			b.StartTimer()
			j, err := s.Submit(req)
			if err != nil {
				b.Fatal(err)
			}
			<-j.Done()
			b.StopTimer()
			s.Close()
			st.Close()
			b.StartTimer()
		}
	})

	b.Run("verdict-hit", func(b *testing.B) {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		s := New(Config{Runners: 1, Store: st})
		defer s.Close()
		j, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
		b.ReportMetric(160000, "inputs/check")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hit, err := s.Submit(req)
			if err != nil {
				b.Fatal(err)
			}
			<-hit.Done()
			if !hit.CachedVerdict {
				b.Fatal("repeat submission missed the verdict store")
			}
		}
	})

	b.Run("resume-half", func(b *testing.B) {
		b.ReportMetric(160000, "inputs/check")
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir, id := seedResumableJob(b, req, 80000)
			st, err := store.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			s := New(Config{Runners: 1, Store: st})
			j, err := s.Job(id)
			if err != nil {
				b.Fatalf("restart did not resume %s: %v", id, err)
			}
			b.StartTimer()
			<-j.Done()
			b.StopTimer()
			if j.stateNow() != StateDone {
				b.Fatalf("resumed job ended %q", j.stateNow())
			}
			s.Close()
			st.Close()
			b.StartTimer()
		}
	})
}

// seedResumableJob writes a store directory containing one pending job
// checkpointed at cursor tuples: run the check with CheckpointEvery set to
// cursor, and crash (close the store under the service) as soon as the
// sweep has moved past the checkpoint — the save between segments is
// synchronous, so progress beyond cursor means the checkpoint is on disk.
// The crash races job completion (a finished job clears its pending
// record), so a seed that lost the race is discarded and retried.
func seedResumableJob(b *testing.B, req CheckRequest, cursor int64) (string, string) {
	b.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		dir := b.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		s := New(Config{Runners: 1, Store: st, CheckpointEvery: cursor})
		j, err := s.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		for j.Progress() <= cursor && !j.stateNow().Terminal() {
			runtime.Gosched()
		}
		st.Close()
		j.cancel()
		<-j.Done()
		s.Close()

		chk, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		pending := chk.PendingJobs()
		chk.Close()
		if len(pending) == 1 {
			return dir, j.ID
		}
	}
	b.Fatal("could not seed a resumable job in 20 attempts")
	return "", ""
}

// BenchmarkStoreAppend measures the raw persistence layer: one fsync'd
// verdict append, and one checkpoint record — a maximal job's one-pass
// checkpoint at cursor 32, as the service writes it between segments,
// taken from testdata — written to the log without fsync.
func BenchmarkStoreAppend(b *testing.B) {
	key := func(i int) store.Key {
		return store.Key{Fingerprint: fmt.Sprintf("fp-%d", i), Policy: "{2}", Variant: "untimed", Count: 9}
	}
	b.Run("verdict-fsync", func(b *testing.B) {
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		payload := []byte(`{"sound":true,"checked":9}`)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.PutVerdict(key(i), payload); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("checkpoint", func(b *testing.B) {
		dir := b.TempDir()
		if err := copyFile(filepath.Join("testdata", cursorRecordsLog), filepath.Join(dir, "verdicts.log")); err != nil {
			b.Fatal(err)
		}
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		pending := st.PendingJobs()
		if len(pending) != 1 || len(pending[0].Checkpoint) == 0 {
			b.Fatalf("fixture holds no checkpoint: %+v", pending)
		}
		id, ck := pending[0].ID, pending[0].Checkpoint
		b.SetBytes(int64(len(ck)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := st.Checkpoint(id, ck); err != nil {
				b.Fatal(err)
			}
		}
	})
}

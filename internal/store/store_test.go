package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func open(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func key(n byte) Key {
	return Key{
		Fingerprint: string([]byte{'a' + n}) + "bcdef",
		Policy:      "allow",
		Variant:     "untimed",
		Domain:      "grid(2;0,1)",
		Count:       8,
	}
}

func TestVerdictRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	k := key(0)
	if _, ok := s.Verdict(k); ok {
		t.Fatal("empty store returned a verdict")
	}
	want := json.RawMessage(`{"kind":"soundness","sound":true,"checked":8}`)
	if err := s.PutVerdict(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Verdict(k)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("Verdict = %s, %v; want %s", got, ok, want)
	}
	// A different shard of the same check is a different key.
	other := k
	other.Offset = 4
	if _, ok := s.Verdict(other); ok {
		t.Fatal("shard-distinct key hit the wrong verdict")
	}

	// Survives a close/reopen cycle.
	s.Close()
	s2 := open(t, dir)
	got, ok = s2.Verdict(k)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("after reopen: Verdict = %s, %v; want %s", got, ok, want)
	}
	st := s2.Stats()
	if st.Verdicts != 1 || st.Hits != 1 {
		t.Errorf("stats after reopen = %+v", st)
	}
}

func TestPendingLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	p := Pending{ID: "job-3", Key: key(1), Payload: json.RawMessage(`{"source":"x := 1"}`)}
	if err := s.PutPending(p); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("job-3", json.RawMessage(`{"cursor":32,"partial":{"kind":"soundness"}}`)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("job-3", json.RawMessage(`{"cursor":64,"partial":{"kind":"soundness"}}`)); err != nil {
		t.Fatal(err)
	}

	// Unknown-job checkpoints are errors — they'd otherwise be silently lost.
	if err := s.Checkpoint("job-99", nil); err == nil {
		t.Error("Checkpoint for unknown job succeeded")
	}

	// Simulate a crash: reopen without ClearPending.
	s.Close()
	s2 := open(t, dir)
	jobs := s2.PendingJobs()
	if len(jobs) != 1 {
		t.Fatalf("PendingJobs = %v, want one", jobs)
	}
	got := jobs[0]
	if got.ID != "job-3" || got.Key != p.Key || string(got.Payload) != string(p.Payload) {
		t.Errorf("recovered pending = %+v, want %+v", got, p)
	}
	var ck struct{ Cursor int64 }
	if err := json.Unmarshal(got.Checkpoint, &ck); err != nil || ck.Cursor != 64 {
		t.Errorf("recovered checkpoint = %s (err %v), want cursor 64", got.Checkpoint, err)
	}

	// Finish the job: clear survives reopen.
	if err := s2.ClearPending("job-3"); err != nil {
		t.Fatal(err)
	}
	if err := s2.ClearPending("job-3"); err != nil {
		t.Errorf("double clear: %v", err)
	}
	s2.Close()
	s3 := open(t, dir)
	if jobs := s3.PendingJobs(); len(jobs) != 0 {
		t.Fatalf("cleared job resurrected: %v", jobs)
	}
}

func TestTornTailIsDropped(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.PutVerdict(key(0), json.RawMessage(`{"sound":true}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash mid-append: a partial record with no newline.
	path := filepath.Join(dir, logName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"verdict","key":{"fingerprint":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := open(t, dir)
	if _, ok := s2.Verdict(key(0)); !ok {
		t.Fatal("intact record lost with the torn tail")
	}
	if st := s2.Stats(); st.Verdicts != 1 {
		t.Errorf("stats = %+v, want exactly the intact verdict", st)
	}
	// The store must still be appendable after truncating the tail.
	if err := s2.PutVerdict(key(1), json.RawMessage(`{"sound":false}`)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3 := open(t, dir)
	if _, ok := s3.Verdict(key(1)); !ok {
		t.Fatal("append after torn-tail recovery lost")
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	p := Pending{ID: "job-1", Key: key(2)}
	if err := s.PutPending(p); err != nil {
		t.Fatal(err)
	}
	// Flood the log with superseded checkpoint records.
	for i := 1; i <= 200; i++ {
		if err := s.Checkpoint("job-1", json.RawMessage(fmt.Sprintf(`{"cursor":%d}`, i*8))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutVerdict(key(3), json.RawMessage(`{"sound":true}`)); err != nil {
		t.Fatal(err)
	}
	s.Close()

	before, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir)
	if st := s2.Stats(); !st.Compacted {
		t.Fatal("checkpoint-flooded log not compacted on open")
	}
	after, err := os.Stat(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("compaction did not shrink the log: %d → %d bytes", before.Size(), after.Size())
	}
	// Live state survives the rewrite.
	if _, ok := s2.Verdict(key(3)); !ok {
		t.Fatal("verdict lost in compaction")
	}
	jobs := s2.PendingJobs()
	if len(jobs) != 1 || jobs[0].ID != "job-1" || string(jobs[0].Checkpoint) != `{"cursor":1600}` {
		t.Fatalf("pending state after compaction = %+v", jobs)
	}
}

// TestCheckpointSurvivesKill appends a checkpoint and then opens the log
// a second time while the first store is still open — what a restart
// after kill -9 sees, since no Close or Sync ran. The checkpoint must be
// there: a killed process keeps every record written before it died.
func TestCheckpointSurvivesKill(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir)
	if err := s.PutPending(Pending{ID: "job-1", Key: key(6)}); err != nil {
		t.Fatal(err)
	}
	ck := json.RawMessage(`{"cursor":64}`)
	if err := s.Checkpoint("job-1", ck); err != nil {
		t.Fatal(err)
	}
	jobs := open(t, dir).PendingJobs()
	if len(jobs) != 1 || string(jobs[0].Checkpoint) != string(ck) {
		t.Fatalf("pending state seen by a restart = %+v, want the checkpoint %s", jobs, ck)
	}
}

func TestStatsCounters(t *testing.T) {
	s := open(t, t.TempDir())
	k := key(4)
	s.Verdict(k) // miss
	if err := s.PutVerdict(k, json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	s.Verdict(k) // hit
	s.Verdict(k) // hit
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Verdicts != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 1 verdict", st)
	}
	if st.BytesAppended == 0 {
		t.Error("BytesAppended not counted")
	}
}

func TestClosedStore(t *testing.T) {
	s := open(t, t.TempDir())
	s.Close()
	if err := s.PutVerdict(key(5), json.RawMessage(`{}`)); err != ErrClosed {
		t.Errorf("PutVerdict on closed store: %v, want ErrClosed", err)
	}
	if err := s.Sync(); err != ErrClosed {
		t.Errorf("Sync on closed store: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestKeyID(t *testing.T) {
	a := Key{Fingerprint: "f", Policy: "p", Variant: "v", Domain: "d", Offset: 1, Count: 2}
	b := a
	b.Count = 3
	if a.ID() == b.ID() {
		t.Error("distinct keys share an ID")
	}
	if a.ID() != a.ID() {
		t.Error("ID not deterministic")
	}
}

// TestOpenCreatesNestedDir opens a store at a path none of whose last
// three directories exist yet, then reopens it: Open must create them
// all (fsyncing each new entry's parent, which no test can observe
// short of a power cut) and the verdict written into them must survive.
// A path through a regular file is an error, not a store.
func TestOpenCreatesNestedDir(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "a", "b", "c")
	s := open(t, dir)
	want := json.RawMessage(`{"sound":true}`)
	if err := s.PutVerdict(key(0), want); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Fatalf("store directory after Open: %v, %v", fi, err)
	}
	got, ok := open(t, dir).Verdict(key(0))
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("after reopen: Verdict = %s, %v; want %s", got, ok, want)
	}

	file := filepath.Join(root, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(filepath.Join(file, "store")); err == nil {
		s.Close()
		t.Fatal("Open under a regular file succeeded")
	}
}

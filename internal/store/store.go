// Package store is the single-binary persistent verdict store behind
// `spm serve -store`: an append-only JSON-line log plus an in-memory
// index, embedded in the server process — no external database.
//
// Two kinds of state live in the log:
//
//   - Verdicts, content-addressed by Key — the check's canonical
//     fingerprint, policy, variant, domain and shard — so a re-submission
//     of work the store has already decided is answered without running
//     anything. Verdict records are fsync'd: once PutVerdict returns, the
//     verdict survives a crash.
//
//   - Pending jobs: the admission payload plus the latest sweep
//     checkpoint of a job that was running when the process died. On
//     restart the server re-enqueues each pending job from its
//     checkpoint cursor instead of from zero. Checkpoints are written
//     without fsync (losing one re-sweeps at most a segment); the
//     terminal ClearPending/PutVerdict pair is fsync'd.
//
// The log tolerates a torn tail — a crash mid-write leaves a final
// partial line, which Open drops — and compacts itself on Open when
// superseded records dominate, rewriting live state into a fresh log.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Key content-addresses a verdict: every coordinate that determines the
// check's outcome, and nothing that doesn't (worker counts, chunk sizes
// and scheduling are deliberately absent). Fingerprint is the canonical
// program fingerprint (flowchart.Fingerprint of the compiled source), so
// textually different submissions of the same program share verdicts.
type Key struct {
	Fingerprint string `json:"fingerprint"`
	Policy      string `json:"policy"`
	Variant     string `json:"variant"`
	Domain      string `json:"domain"`
	Offset      int64  `json:"offset,omitempty"`
	Count       int64  `json:"count,omitempty"`
}

// ID renders the key's canonical string form, used as the index key and
// in log records. It is unambiguous: fields are joined with a separator
// that cannot appear in a hex fingerprint, policy, variant or the
// canonical domain form.
func (k Key) ID() string {
	return fmt.Sprintf("%s|%s|%s|%s|%d+%d", k.Fingerprint, k.Policy, k.Variant, k.Domain, k.Offset, k.Count)
}

// Pending is a job the server admitted but has not finished: everything
// needed to re-create and resume it after a restart.
type Pending struct {
	// ID is the job's public identifier ("job-17"); a resumed job keeps
	// it, so clients polling across a restart see the same job complete.
	ID string `json:"id"`
	// Key addresses the verdict the job is computing.
	Key Key `json:"key"`
	// Payload is the service's own serialized admission state (request
	// source, options). The store does not interpret it.
	Payload json.RawMessage `json:"payload,omitempty"`
	// Checkpoint is the service's serialized sweep checkpoint — cursor
	// plus folded partial evidence. Nil until the first checkpoint lands.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	// Cursor mirrors the checkpoint's committed tuple count, kept
	// separately so progress is readable without decoding the evidence.
	Cursor int64 `json:"cursor,omitempty"`
}

// Stats counts what the store has done since Open.
type Stats struct {
	// Verdicts is the number of distinct verdicts currently indexed.
	Verdicts int `json:"verdicts"`
	// Pending is the number of unfinished jobs currently indexed.
	Pending int `json:"pending"`
	// Hits counts Verdict lookups that found a stored verdict.
	Hits int64 `json:"hits"`
	// Misses counts Verdict lookups that found nothing.
	Misses int64 `json:"misses"`
	// BytesAppended counts log bytes written since Open (excluding the
	// compaction rewrite itself).
	BytesAppended int64 `json:"bytes_appended"`
	// ResumedJobs counts pending jobs recovered by PendingJobs calls.
	ResumedJobs int64 `json:"resumed_jobs"`
	// Compacted reports whether Open rewrote the log.
	Compacted bool `json:"compacted"`
}

// record is one log line. T selects which of the optional fields are
// meaningful.
type record struct {
	T string `json:"t"` // "verdict" | "pending" | "ckpt" | "cur" | "clear"

	// verdict
	Key     *Key            `json:"key,omitempty"`
	Verdict json.RawMessage `json:"verdict,omitempty"`

	// pending / ckpt / cur / clear
	ID         string          `json:"id,omitempty"`
	PKey       *Key            `json:"pkey,omitempty"`
	Payload    json.RawMessage `json:"payload,omitempty"`
	Checkpoint json.RawMessage `json:"ckpt,omitempty"`
	Cursor     int64           `json:"cursor,omitempty"`
}

// verdictEntry pairs the stored verdict bytes with the structured key,
// so compaction can rewrite the record without parsing Key.ID() back.
type verdictEntry struct {
	key  Key
	data json.RawMessage
}

// Store is safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	dir      string
	f        *os.File
	w        *bufio.Writer
	verdicts map[string]verdictEntry // Key.ID() → verdict
	pending  map[string]*Pending     // job ID → pending state
	records  int                     // log lines appended since Open (live + superseded)
	stats    Stats
	closed   bool
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

const logName = "verdicts.log"

// compactWasteFactor triggers an Open-time rewrite when the log holds
// more than this many records per live entry — i.e. superseded
// checkpoint/cursor lines dominate.
const compactWasteFactor = 4

// Open loads (or creates) the store rooted at dir. The log is replayed
// into the in-memory index; a torn final line (crash mid-append) is
// discarded. If superseded records dominate, the log is compacted —
// live state rewritten to a fresh log and atomically swapped in.
func Open(dir string) (*Store, error) {
	if err := mkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		verdicts: make(map[string]verdictEntry),
		pending:  make(map[string]*Pending),
	}
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("store: %w", err)
	}
	created := err != nil
	lines := 0
	if len(data) > 0 {
		// Drop a torn tail: everything after the last newline is a
		// partial record from a crash mid-write. Truncate the file too,
		// or the next append would fuse with the partial line.
		if i := bytes.LastIndexByte(data, '\n'); i < len(data)-1 {
			data = data[:i+1]
			if err := os.Truncate(path, int64(len(data))); err != nil {
				return nil, fmt.Errorf("store: truncate torn tail: %w", err)
			}
		}
		for _, line := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			lines++
			var r record
			if err := json.Unmarshal(line, &r); err != nil {
				// A corrupt interior line loses that record but not the
				// log; keep replaying.
				continue
			}
			s.apply(r)
		}
	}

	live := len(s.verdicts) + len(s.pending)
	if lines > compactWasteFactor*(live+1) {
		if err := s.compact(path); err != nil {
			return nil, err
		}
		s.stats.Compacted = true
	}

	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if created {
		// A synced record is durable only once the directory names the
		// file it went to.
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	s.f = f
	s.w = bufio.NewWriter(f)
	return s, nil
}

// apply folds one replayed record into the index.
func (s *Store) apply(r record) {
	switch r.T {
	case "verdict":
		if r.Key != nil && len(r.Verdict) > 0 {
			s.verdicts[r.Key.ID()] = verdictEntry{key: *r.Key, data: r.Verdict}
		}
	case "pending":
		if r.ID != "" && r.PKey != nil {
			s.pending[r.ID] = &Pending{ID: r.ID, Key: *r.PKey, Payload: r.Payload}
		}
	case "ckpt":
		if p, ok := s.pending[r.ID]; ok {
			p.Checkpoint = r.Checkpoint
			p.Cursor = r.Cursor
		}
	case "cur":
		if p, ok := s.pending[r.ID]; ok && r.Cursor > p.Cursor {
			p.Cursor = r.Cursor
		}
	case "clear":
		delete(s.pending, r.ID)
	}
}

// compact rewrites live state into a fresh log, renames it over the old
// one and syncs the directory. Called with the index loaded, before the
// append handle opens.
func (s *Store) compact(path string) error {
	tmp := path + ".compact"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	w := bufio.NewWriter(f)
	write := func(r record) {
		if err == nil {
			var line []byte
			line, err = json.Marshal(r)
			if err == nil {
				line = append(line, '\n')
				_, err = w.Write(line)
			}
		}
	}
	for _, id := range sortedIDs(s.verdicts) {
		e := s.verdicts[id]
		k := e.key
		write(record{T: "verdict", Key: &k, Verdict: e.data})
	}
	for _, id := range sortedPending(s.pending) {
		p := s.pending[id]
		pk := p.Key
		write(record{T: "pending", ID: p.ID, PKey: &pk, Payload: p.Payload})
		if p.Checkpoint != nil || p.Cursor > 0 {
			write(record{T: "ckpt", ID: p.ID, Checkpoint: p.Checkpoint, Cursor: p.Cursor})
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: compact: %w", err)
	}
	// Until the directory is synced a power cut can bring back the old
	// log, and with it lose every record appended to the renamed one.
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	s.records = len(s.verdicts) + len(s.pending)
	return nil
}

// mkdirAll is os.MkdirAll made durable: once dir and its missing
// ancestors exist, it fsyncs the parent of every directory it created,
// deepest first, so a power cut cannot lose a new store directory — and
// the synced log inside it — by losing a directory entry above it.
func mkdirAll(dir string) error {
	var created []string // deepest first
	for d := filepath.Clean(dir); ; {
		if _, err := os.Stat(d); !errors.Is(err, os.ErrNotExist) {
			break // exists, or an error MkdirAll reports
		}
		created = append(created, d)
		parent := filepath.Dir(d)
		if parent == d {
			break
		}
		d = parent
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, d := range created {
		if err := syncDir(filepath.Dir(d)); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs the directory dir, making the names in it — a created
// or renamed log — durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// append writes one record; sync forces it (and everything before it)
// to stable storage before returning.
func (s *Store) append(r record, sync bool) error {
	if s.closed {
		return ErrClosed
	}
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	line = append(line, '\n')
	if _, err := s.w.Write(line); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.records++
	s.stats.BytesAppended += int64(len(line))
	if sync {
		if err := s.w.Flush(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
	}
	return nil
}

// Verdict returns the stored verdict for key, if any. The returned
// bytes are the exact JSON previously given to PutVerdict.
func (s *Store) Verdict(key Key) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.verdicts[key.ID()]
	if ok {
		s.stats.Hits++
	} else {
		s.stats.Misses++
	}
	return e.data, ok
}

// PutVerdict durably records the verdict for key, replacing any previous
// one. It fsyncs before returning: a crash after PutVerdict cannot lose
// the verdict.
func (s *Store) PutVerdict(key Key, verdict json.RawMessage) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := key
	if err := s.append(record{T: "verdict", Key: &k, Verdict: verdict}, true); err != nil {
		return err
	}
	s.verdicts[key.ID()] = verdictEntry{key: key, data: append(json.RawMessage(nil), verdict...)}
	return nil
}

// PutPending durably records an admitted-but-unfinished job. Call once
// at admission; follow with Checkpoint/Cursor as the sweep progresses
// and ClearPending (or PutVerdict+ClearPending) at completion.
func (s *Store) PutPending(p Pending) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	pk := p.Key
	if err := s.append(record{T: "pending", ID: p.ID, PKey: &pk, Payload: p.Payload}, true); err != nil {
		return err
	}
	cp := p
	s.pending[p.ID] = &cp
	return nil
}

// Checkpoint records job id's latest sweep checkpoint (serialized cursor
// plus folded evidence). Not fsync'd: a crash loses at most the tail
// checkpoints, and the job resumes from the last one that reached disk.
func (s *Store) Checkpoint(id string, checkpoint json.RawMessage, cursor int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pending[id]
	if !ok {
		return fmt.Errorf("store: checkpoint for unknown job %q", id)
	}
	if err := s.append(record{T: "ckpt", ID: id, Checkpoint: checkpoint, Cursor: cursor}, false); err != nil {
		return err
	}
	p.Checkpoint = append(json.RawMessage(nil), checkpoint...)
	p.Cursor = cursor
	return nil
}

// Cursor records job id's fine-grained contiguous sweep prefix — the
// chunk-level commit between checkpoints. Cheap (no fsync, no evidence);
// it only narrows the window of work a crash loses to re-sweeping.
func (s *Store) Cursor(id string, cursor int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.pending[id]
	if !ok {
		return fmt.Errorf("store: cursor for unknown job %q", id)
	}
	if err := s.append(record{T: "cur", ID: id, Cursor: cursor}, false); err != nil {
		return err
	}
	if cursor > p.Cursor {
		p.Cursor = cursor
	}
	return nil
}

// ClearPending durably removes job id from the pending set — the job
// finished (its verdict stored via PutVerdict), failed, or was
// cancelled. Clearing an unknown id is a no-op.
func (s *Store) ClearPending(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pending[id]; !ok {
		return nil
	}
	if err := s.append(record{T: "clear", ID: id}, true); err != nil {
		return err
	}
	delete(s.pending, id)
	return nil
}

// PendingJobs returns the jobs that were admitted but never cleared —
// after a restart, the jobs to re-enqueue — sorted by ID for a
// deterministic resume order. The returned values are copies.
func (s *Store) PendingJobs() []Pending {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Pending, 0, len(s.pending))
	for _, id := range sortedPending(s.pending) {
		out = append(out, *s.pending[id])
	}
	s.stats.ResumedJobs += int64(len(out))
	return out
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Verdicts = len(s.verdicts)
	st.Pending = len(s.pending)
	return st
}

// Sync flushes buffered appends to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.w.Flush(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Close flushes and closes the log. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.w.Flush()
	if serr := s.f.Sync(); err == nil {
		err = serr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: close: %w", err)
	}
	return nil
}

func sortedIDs(m map[string]verdictEntry) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedPending(m map[string]*Pending) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

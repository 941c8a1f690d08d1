package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"

	"spm/internal/core"
	"spm/internal/flowchart"
	"spm/internal/lattice"
	"spm/internal/surveillance"
)

// compiled is one compile-cache value: everything derivable from
// (program, policy, variant, raw) that does not depend on the test domain.
// Both mechanisms are pre-lowered through flowchart.Compile, so a check
// against a cached entry goes straight to the sweep engine's compiled fast
// path with no parse, instrument, or Compile work.
type compiled struct {
	canonKey string
	// textKeys are the source-level keys currently pointing at this entry
	// (formatting variants of the same flowchart share it).
	textKeys map[string]bool

	// fingerprint and variantName are the canonical coordinates the
	// persistent verdict store keys on: the program's flowchart
	// fingerprint and the normalized variant spelling.
	fingerprint string
	variantName string

	prog    *flowchart.Program
	allowed lattice.IndexSet
	polName string
	mech    core.Mechanism          // checked mechanism (instrumented unless raw)
	bare    *core.CompiledMechanism // bare program, the maximality reference
}

// CompileCache is the content-addressed store behind the service. Lookup is
// two-level: the raw submission text hashes to a key that, on a hit, skips
// even the parse; on a textual miss the parsed program's canonical
// flowchart.Fingerprint is tried, so two sources that differ only in
// layout share one compiled entry. Entries are LRU-evicted beyond Cap.
type CompileCache struct {
	mu      sync.Mutex
	cap     int
	byText  map[string]*list.Element
	byCanon map[string]*list.Element
	lru     *list.List // of *compiled; front = most recently used

	hits   atomic.Int64
	misses atomic.Int64
}

// DefaultCacheCap bounds the cache when Config.CacheCap is unset.
const DefaultCacheCap = 128

// maxTextAliases bounds how many source-level keys may point at one
// compiled entry. Formatting variants beyond the bound still resolve
// through the canonical level (one parse, no compile); without the bound,
// a stream of re-whitespaced copies of one hot program would grow byText
// indefinitely while the LRU length never moves.
const maxTextAliases = 16

// NewCompileCache builds a cache holding at most cap compiled entries
// (DefaultCacheCap when cap ≤ 0).
func NewCompileCache(cap int) *CompileCache {
	if cap <= 0 {
		cap = DefaultCacheCap
	}
	return &CompileCache{
		cap:     cap,
		byText:  make(map[string]*list.Element),
		byCanon: make(map[string]*list.Element),
		lru:     list.New(),
	}
}

// CacheStats is the cache section of /v2/stats.
type CacheStats struct {
	Entries int     `json:"entries"`
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// Stats snapshots the counters.
func (c *CompileCache) Stats() CacheStats {
	c.mu.Lock()
	entries := c.lru.Len()
	c.mu.Unlock()
	h, m := c.hits.Load(), c.misses.Load()
	s := CacheStats{Entries: entries, Hits: h, Misses: m}
	if h+m > 0 {
		s.HitRate = float64(h) / float64(h+m)
	}
	return s
}

// hashKey builds a domain-separated content address from its parts.
func hashKey(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d\x00%s\x00", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// GetOrCompile returns the compiled entry for the request, building and
// inserting it on a miss. The second return reports whether the compile
// phase was skipped (either cache level). Validation errors (bad program,
// bad policy, bad variant) are returned wrapped in ErrBadRequest.
func (c *CompileCache) GetOrCompile(req CheckRequest) (*compiled, bool, error) {
	textKey := hashKey("text", req.Program, req.Policy, req.Variant, boolKey(req.Raw))

	c.mu.Lock()
	if el, ok := c.byText[textKey]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		return el.Value.(*compiled), true, nil
	}
	c.mu.Unlock()

	// Textual miss: parse and resolve, then try the canonical level before
	// paying for instrument+Compile.
	prog, err := flowchart.Parse(req.Program)
	if err != nil {
		return nil, false, fmt.Errorf("%w: program: %v", ErrBadRequest, err)
	}
	allowed, err := ParsePolicy(req.Policy, prog.Arity())
	if err != nil {
		return nil, false, fmt.Errorf("%w: policy: %v", ErrBadRequest, err)
	}
	variant, err := ParseVariant(req.Variant)
	if err != nil {
		return nil, false, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	// The canonical key normalises every field: the program through its
	// Print-based fingerprint, the policy through the index-set rendering,
	// and the variant through its parsed value — so "highwater" and
	// "high-water" (or "" and "untimed") share one compiled entry.
	fingerprint := flowchart.Fingerprint(prog)
	canonKey := hashKey("canon", fingerprint, allowed.String(),
		fmt.Sprintf("v%d", variant), boolKey(req.Raw))

	c.mu.Lock()
	if el, ok := c.byCanon[canonKey]; ok {
		e := el.Value.(*compiled)
		c.addAliasLocked(el, e, textKey)
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		c.hits.Add(1)
		return e, true, nil
	}
	c.mu.Unlock()

	e, err := build(prog, allowed, variant, req.Raw)
	if err != nil {
		return nil, false, err
	}
	e.canonKey = canonKey
	e.fingerprint = fingerprint
	e.variantName = variantString(variant)
	e.textKeys = map[string]bool{textKey: true}

	c.mu.Lock()
	defer c.mu.Unlock()
	// A racing submitter may have inserted the same entry; keep theirs.
	if el, ok := c.byCanon[canonKey]; ok {
		prev := el.Value.(*compiled)
		c.addAliasLocked(el, prev, textKey)
		c.lru.MoveToFront(el)
		c.hits.Add(1)
		return prev, true, nil
	}
	el := c.lru.PushFront(e)
	c.byCanon[canonKey] = el
	c.byText[textKey] = el
	for c.lru.Len() > c.cap {
		old := c.lru.Back()
		victim := old.Value.(*compiled)
		c.lru.Remove(old)
		delete(c.byCanon, victim.canonKey)
		for k := range victim.textKeys {
			delete(c.byText, k)
		}
	}
	c.misses.Add(1)
	return e, false, nil
}

// addAliasLocked records textKey as another source-level alias of e,
// respecting the per-entry alias bound. Callers hold c.mu.
func (c *CompileCache) addAliasLocked(el *list.Element, e *compiled, textKey string) {
	if len(e.textKeys) >= maxTextAliases {
		return
	}
	e.textKeys[textKey] = true
	c.byText[textKey] = el
}

// build does the expensive domain-independent work: instrument (unless
// raw) and lower both the checked mechanism and the bare program.
func build(prog *flowchart.Program, allowed lattice.IndexSet, variant surveillance.Variant, raw bool) (*compiled, error) {
	bare, err := core.CompileMechanism(core.FromProgram(prog))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	e := &compiled{
		prog:    prog,
		allowed: allowed,
		polName: allowed.String(),
		bare:    bare,
	}
	if raw {
		e.mech = bare
		return e, nil
	}
	instr, err := surveillance.Instrument(prog, allowed, variant)
	if err != nil {
		return nil, fmt.Errorf("%w: instrument: %v", ErrBadRequest, err)
	}
	mech, err := core.CompileMechanism(core.FromProgram(instr))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	e.mech = mech
	return e, nil
}

func boolKey(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// ParsePolicy resolves a policy spec ("", "all", or "{1,3}") against the
// program arity, rejecting indices beyond it and programs with more
// inputs than an index set can name. Shared by the HTTP service and the
// spm CLI so both surfaces accept exactly the same inputs.
func ParsePolicy(spec string, arity int) (lattice.IndexSet, error) {
	if arity > lattice.MaxIndex {
		return 0, fmt.Errorf("program has %d inputs; a policy can name at most %d", arity, lattice.MaxIndex)
	}
	if spec == "" {
		return lattice.EmptySet, nil
	}
	if spec == "all" {
		return lattice.AllInputs(arity), nil
	}
	s, err := lattice.ParseIndexSet(spec)
	if err != nil {
		return 0, err
	}
	if !s.SubsetOf(lattice.AllInputs(arity)) {
		return 0, fmt.Errorf("policy %s exceeds program arity %d", s, arity)
	}
	return s, nil
}

// variantString renders a parsed variant in its canonical spelling —
// the inverse of ParseVariant, used in the verdict store's key.
func variantString(v surveillance.Variant) string {
	switch v {
	case surveillance.Timed:
		return "timed"
	case surveillance.Monotone:
		return "highwater"
	default:
		return "untimed"
	}
}

// ParseVariant maps a variant spelling to its surveillance.Variant.
func ParseVariant(spec string) (surveillance.Variant, error) {
	switch spec {
	case "", "untimed":
		return surveillance.Untimed, nil
	case "timed":
		return surveillance.Timed, nil
	case "highwater", "high-water":
		return surveillance.Monotone, nil
	default:
		return 0, fmt.Errorf("unknown variant %q (want untimed, timed, or highwater)", spec)
	}
}

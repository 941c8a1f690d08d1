package service

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"spm/internal/core"
	"spm/internal/flowchart"
	"spm/internal/lattice"
	"spm/internal/surveillance"
)

// testProg leaks x1 into the output on the x2 != 0 path, so under
// allow(2) the bare program is unsound and the instrumented one sound.
const testProg = `
program demo
inputs x1 x2
    r := x1
    r := 0
    if x2 == 0 goto Zero else NonZero
Zero:    y := r
         halt
NonZero: y := x1
         halt
`

func waitJob(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
	return j.Status()
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

func TestSubmitVerdictMatchesDirectCheck(t *testing.T) {
	s := newTestService(t, Config{Runners: 2, SweepWorkers: 2})
	j, err := s.Submit(CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("state = %s (error %q), want done", st.State, st.Error)
	}

	// Reference: the sequential checker on the same setup.
	prog := flowchart.MustParse(testProg)
	mech, err := surveillance.Mechanism(prog, mustPolicy(t, "{2}"), surveillance.Untimed)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.CheckSoundness(mech, core.NewAllow(2, 2), core.Grid(2, 0, 1, 2), core.ObserveValue)
	if err != nil {
		t.Fatal(err)
	}
	if st.Result.Sound != want.Sound || st.Result.Checked != want.Checked {
		t.Errorf("service verdict (sound=%v checked=%d) != direct (sound=%v checked=%d)",
			st.Result.Sound, st.Result.Checked, want.Sound, want.Checked)
	}
	if !st.Result.Sound {
		t.Error("instrumented program should be sound under allow(2)")
	}
	if st.Progress.Done != st.Progress.Total {
		t.Errorf("progress %d/%d after completion", st.Progress.Done, st.Progress.Total)
	}
}

func TestSubmitRawUnsoundWithWitness(t *testing.T) {
	s := newTestService(t, Config{Runners: 1})
	j, err := s.Submit(CheckRequest{Program: testProg, Policy: "{2}", Raw: true, Domain: []int64{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("state = %s, want done", st.State)
	}
	if st.Result.Sound {
		t.Fatal("bare program should be unsound under allow(2)")
	}
	if st.Result.WitnessA == nil || st.Result.WitnessB == nil {
		t.Error("unsound verdict carries no witness pair")
	}
}

func TestSubmitMaximalProgressCountsAllPasses(t *testing.T) {
	// Plain and store-backed services sweep a maximal job once — the
	// maximality pass decides soundness too — and reach the same verdict.
	services := map[string]*Service{
		"plain":  newTestService(t, Config{Runners: 1}),
		"stored": storedService(t, t.TempDir(), Config{Runners: 1}),
	}
	results := map[string]*Result{}
	for name, s := range services {
		j, err := s.Submit(CheckRequest{Program: testProg, Policy: "{2}", Maximal: true, Domain: []int64{0, 1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(9); j.Total != want {
			t.Errorf("%s: maximal job total = %d, want %d (one pass over the domain)", name, j.Total, want)
		}
		st := waitJob(t, j)
		if st.State != StateDone {
			t.Fatalf("%s: state = %s, want done", name, st.State)
		}
		if st.Result.Maximal == nil {
			t.Fatalf("%s: maximal verdict missing", name)
		}
		if st.Progress.Done != j.Total || st.Progress.Total != j.Total {
			t.Errorf("%s: progress %d/%d, want %d/%d", name, st.Progress.Done, st.Progress.Total, j.Total, j.Total)
		}
		results[name] = st.Result
	}
	p, s := results["plain"], results["stored"]
	if *p.Maximal != *s.Maximal || !reflect.DeepEqual(p.MaximalWitness, s.MaximalWitness) || p.MaximalReason != s.MaximalReason {
		t.Errorf("plain and store-backed maximality verdicts differ: %v %v %q vs %v %v %q",
			*p.Maximal, p.MaximalWitness, p.MaximalReason, *s.Maximal, s.MaximalWitness, s.MaximalReason)
	}
}

func TestSecondIdenticalSubmissionHitsCache(t *testing.T) {
	s := newTestService(t, Config{Runners: 1})
	req := CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1}}
	first, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Error("first submission reported a cache hit")
	}
	fst := waitJob(t, first)

	second, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second identical submission missed the compile cache")
	}
	sst := waitJob(t, second)
	if fst.Result.Sound != sst.Result.Sound || fst.Result.Checked != sst.Result.Checked {
		t.Errorf("cached verdict differs: %+v vs %+v", fst.Result, sst.Result)
	}
	// The second submission compiled nothing: exactly one miss (the first
	// submit) and one hit (the second) — workers run off the entry stored
	// on the job, never re-resolving the cache.
	if st := s.cache.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache stats = %+v, want exactly 1 miss and 1 hit", st)
	}
}

func TestReformattedSourceSharesCompiledEntry(t *testing.T) {
	s := newTestService(t, Config{Runners: 1})
	if _, err := s.Submit(CheckRequest{Program: testProg, Policy: "{2}"}); err != nil {
		t.Fatal(err)
	}
	// Same flowchart, different whitespace: canonical-level hit.
	reformatted := "\n\nprogram demo\ninputs x1 x2\n\tr := x1\n\tr := 0\n\tif x2 == 0 goto Zero else NonZero\nZero:\ty := r\n\thalt\nNonZero:\ty := x1\n\thalt\n"
	j, err := s.Submit(CheckRequest{Program: reformatted, Policy: "{2}"})
	if err != nil {
		t.Fatal(err)
	}
	if !j.CacheHit {
		t.Error("reformatted source missed the canonical cache level")
	}
	if misses := s.cache.Stats().Misses; misses != 1 {
		t.Errorf("cache misses = %d, want 1", misses)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestService(t, Config{Runners: 1, MaxTuples: 100})
	cases := []struct {
		name string
		req  CheckRequest
	}{
		{"malformed program", CheckRequest{Program: "program broken\ninputs x1\n    y := \n"}},
		{"bad policy", CheckRequest{Program: testProg, Policy: "{nope}"}},
		{"policy exceeds arity", CheckRequest{Program: testProg, Policy: "{7}"}},
		{"bad variant", CheckRequest{Program: testProg, Variant: "warp"}},
		{"domain too large", CheckRequest{Program: testProg, Domain: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := s.Submit(tc.req)
			if !errors.Is(err, ErrBadRequest) {
				t.Errorf("err = %v, want ErrBadRequest", err)
			}
		})
	}
}

func TestUnknownJob(t *testing.T) {
	s := newTestService(t, Config{Runners: 1})
	if _, err := s.Job("job-999"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("err = %v, want ErrUnknownJob", err)
	}
}

func TestStatsTallies(t *testing.T) {
	s := newTestService(t, Config{Runners: 2})
	req := CheckRequest{Program: testProg, Policy: "{2}", Domain: []int64{0, 1, 2}}
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		waitJob(t, j)
	}
	st := s.Stats()
	if st.Jobs.Done != 6 || st.Jobs.Failed != 0 {
		t.Errorf("job tallies = %+v, want 6 done", st.Jobs)
	}
	if st.Queue.Depth != 0 || st.Queue.Peak < 1 || st.Queue.Peak > 6 {
		t.Errorf("queue stats = %+v, want depth 0 and a peak in 1..6", st.Queue)
	}
	if st.Cache.Hits < 5 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want ≥5 hits and exactly 1 miss", st.Cache)
	}
}

func mustPolicy(t *testing.T, spec string) lattice.IndexSet {
	t.Helper()
	s, err := ParsePolicy(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLoneJobLendsIdleCPUs: on an idle service a lone job's sweep adds a
// helper on the idle CPU — its trace shows chunks from worker 1 — and the
// verdict, an unsound one with its witness pair, is the one a single sweep
// worker reaches.
func TestLoneJobLendsIdleCPUs(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("lending needs two CPUs")
	}
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	req := slowRequest()
	req.Policy = "{1}" // slowProg outputs x2
	req.Domain = req.Domain[:8]

	s := newTestService(t, Config{Runners: 2})
	if w := s.Config().SweepWorkers; w != 1 {
		t.Errorf("a lending service reports SweepWorkers %d, want 1", w)
	}
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	got := waitJob(t, j)
	tr, ok := s.JobTrace(j.ID)
	if !ok {
		t.Fatal("no trace")
	}
	helper := false
	for _, e := range tr.Events {
		helper = helper || e.Name == "chunk" && strings.HasPrefix(e.Detail, "worker=1 ")
	}
	if !helper {
		t.Errorf("lone job ran on one sweep worker: %+v", tr.Events)
	}

	ref := newTestService(t, Config{Runners: 2, SweepWorkers: 1})
	rj, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	want := waitJob(t, rj)
	if got.State != StateDone || got.Result.Sound || !reflect.DeepEqual(stripTiming(got.Result), stripTiming(want.Result)) {
		t.Errorf("lending verdict %+v, one worker's %+v", got, want)
	}
}

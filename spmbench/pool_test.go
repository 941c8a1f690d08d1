package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"spm/internal/check"
	"spm/internal/core"
	"spm/internal/flowchart"
	"spm/internal/progen"
	"spm/internal/service"
)

// Rewrite the pool files with
//
//	go test -run TestCalibratePool -calibrate
//
// on an otherwise idle machine; it measures every program several times.
var calibrate = flag.Bool("calibrate", false, "rewrite pool-<workload>.txt from fresh measurements")

// poolSeed draws the candidate programs of the pool files.
const poolSeed = 1

// calibrations describes each pool file: the kinds it holds and how many
// programs of each, a stratum per jobsPerStratum job positions of that
// kind.
var calibrations = []struct {
	workload string
	kinds    []string
	perKind  int
}{
	{"bulk", []string{"instrumented", "raw", "maximal"}, bulkJobs / 3 / jobsPerStratum * strataWidth},
	{"cluster", []string{"instrumented"}, clusterJobs / jobsPerStratum * strataWidth},
}

// canonicalCheck is the check every pool cost is measured on: the program
// under policy {1} over 35 values per axis, with the kind's variant.
const canonicalCheck = "policy {1}, 35 values per axis, 1 sweep worker, batch width 16; cost_us is the least process CPU time of 3 runs"

func canonical(program, kind string) service.CheckRequest {
	return service.CheckRequest{Program: program, Policy: "{1}", Domain: core.Range(0, 34),
		Raw: kind == "raw", Maximal: kind == "maximal"}
}

func TestCalibratePool(t *testing.T) {
	if !*calibrate {
		t.Skip("pass -calibrate to rewrite the pool files")
	}
	for _, c := range calibrations {
		r := rand.New(rand.NewSource(poolSeed))
		seen := map[string]bool{}
		p := pool{}
		for len(p[c.kinds[len(c.kinds)-1]]) < c.perKind {
			for _, kind := range c.kinds {
				prog := candidate(r, seen)
				cost, err := measure(canonical(prog, kind))
				if err != nil {
					t.Fatal(err)
				}
				p[kind] = append(p[kind], pooled{cost.Microseconds(), prog})
			}
		}
		var b strings.Builder
		fmt.Fprintf(&b, "Program pool of the %s workload (see workload.go). Canonical check: %s.\n", c.workload, canonicalCheck)
		for _, kind := range c.kinds {
			progs := p[kind]
			slices.SortStableFunc(progs, func(a, b pooled) int { return int(a.costUS - b.costUS) })
			for _, pp := range progs {
				fmt.Fprintf(&b, "%s%s %d\n%s", poolMark, kind, pp.costUS, pp.program)
			}
		}
		if err := os.WriteFile("pool-"+c.workload+".txt", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// candidate draws a fresh arity-3 program whose mean step count over a
// coarse grid lies in [20, 80] and whose output takes at least two values
// there. The band keeps per-job cost from swinging by orders of
// magnitude; the output condition makes raw checks able to fail.
func candidate(r *rand.Rand, seen map[string]bool) string {
	for {
		p := progen.Generate(r, progen.DefaultConfig(3))
		fp := flowchart.Fingerprint(p)
		if seen[fp] {
			continue
		}
		seen[fp] = true
		if mean, outputs := profile(p, core.Range(0, 34)); mean >= 20 && mean <= 80 && outputs >= 2 {
			return flowchart.Print(p)
		}
	}
}

// profile runs p on a grid of five values per axis spread over values and
// reports the mean step count and the number of distinct outcomes.
func profile(p *flowchart.Program, values []int64) (float64, int) {
	grid := make([]int64, 5)
	for i := range grid {
		grid[i] = values[i*(len(values)-1)/4]
	}
	m := core.FromProgram(p)
	outs := map[string]bool{}
	var steps, n int64
	err := core.Grid(p.Arity(), grid...).Enumerate(func(in []int64) error {
		o, err := m.Run(in)
		if err != nil {
			return err
		}
		outs[o.String()] = true
		steps += o.Steps
		n++
		return nil
	})
	if err != nil || n == 0 {
		return 0, 0
	}
	return float64(steps) / float64(n), len(outs)
}

// measure is the least process CPU time of three runs of the check.
func measure(req service.CheckRequest) (time.Duration, error) {
	s, _, err := resolve(nil, 0, req)
	if err != nil {
		return 0, err
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 3; i++ {
		t := cpuTime()
		if _, _, err := s.run(context.Background(), check.Shard{}, check.WithWorkers(1), check.WithBatch(service.DefaultSweepBatch)); err != nil {
			return 0, err
		}
		best = min(best, cpuTime()-t)
	}
	return best, nil
}

// The pool files hold what Generate needs: enough distinct arity-3
// programs of every kind, cheapest first.
func TestPoolFiles(t *testing.T) {
	for _, c := range calibrations {
		p, err := loadPool(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, kind := range c.kinds {
			progs := p[kind]
			if len(progs) != c.perKind {
				t.Errorf("%s: %d %s programs, want %d", c.workload, len(progs), kind, c.perKind)
			}
			if !slices.IsSortedFunc(progs, func(a, b pooled) int { return int(a.costUS - b.costUS) }) {
				t.Errorf("%s: %s programs are not sorted by cost", c.workload, kind)
			}
			for _, pp := range progs {
				prog, err := flowchart.Parse(pp.program)
				if err != nil {
					t.Fatalf("%s: %v", c.workload, err)
				}
				if prog.Arity() != 3 {
					t.Errorf("%s: program of arity %d", c.workload, prog.Arity())
				}
				if flowchart.Print(prog) != pp.program {
					t.Errorf("%s: a program does not print back as stored", c.workload)
				}
				fp := flowchart.Fingerprint(prog)
				if seen[fp] {
					t.Errorf("%s: program %s twice", c.workload, fp)
				}
				seen[fp] = true
			}
		}
	}
}

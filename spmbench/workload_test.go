package main

import (
	"bytes"
	"testing"

	"spm/internal/core"
	"spm/internal/flowchart"
	"spm/internal/sweep"
)

// The job list is a pure function of the workload and the seed: equal
// seeds give byte-identical lists, different seeds different ones.
func TestJobListIsAPureFunctionOfTheSeed(t *testing.T) {
	for _, name := range workloads {
		a, err := Generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Generate(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Encode(), b.Encode()) {
			t.Errorf("%s: seed 7 gave two different job lists", name)
		}
		if bytes.Equal(a.Encode(), c.Encode()) {
			t.Errorf("%s: seeds 7 and 8 gave the same job list", name)
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Generate("nosuch", 1); err == nil {
		t.Fatal("Generate accepted an unknown workload")
	}
}

// Different seeds run different programs, not only a reordered list.
func TestSeedChoosesPrograms(t *testing.T) {
	for _, name := range workloads {
		programs := func(seed int64) map[string]bool {
			wl, err := Generate(name, seed)
			if err != nil {
				t.Fatal(err)
			}
			set := map[string]bool{}
			for _, req := range wl.Jobs {
				set[req.Program] = true
			}
			return set
		}
		a, b := programs(7), programs(8)
		shared := 0
		for p := range a {
			if b[p] {
				shared++
			}
		}
		if shared > len(a)*3/4 {
			t.Errorf("%s: seeds 7 and 8 share %d of %d programs", name, shared, len(a))
		}
	}
}

// Each workload keeps the sizes and the mix spmbench/README.md documents.
func TestWorkloadShape(t *testing.T) {
	for _, tc := range []struct {
		name     string
		jobs     int
		min, max int
	}{
		{"bulk", bulkJobs, 27_000, 64_000},
		{"cluster", clusterJobs, 100_000, 111_000},
	} {
		wl, err := Generate(tc.name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(wl.Jobs) != tc.jobs {
			t.Errorf("%s: %d jobs, want %d", tc.name, len(wl.Jobs), tc.jobs)
		}
		raw, maximal := 0, 0
		for _, req := range wl.Jobs {
			p, err := flowchart.Parse(req.Program)
			if err != nil {
				t.Fatal(err)
			}
			if n := sweep.Size(core.Grid(p.Arity(), req.Domain...)); n < tc.min || n > tc.max {
				t.Errorf("%s: job of %d tuples, want %d–%d", tc.name, n, tc.min, tc.max)
			}
			if req.Raw {
				raw++
			}
			if req.Maximal {
				maximal++
			}
		}
		switch tc.name {
		case "bulk":
			if raw != bulkJobs/3 || maximal != bulkJobs/3 {
				t.Errorf("bulk: %d raw and %d maximality jobs, want %d each", raw, maximal, bulkJobs/3)
			}
		case "cluster":
			if raw != 0 || maximal != 0 {
				t.Errorf("cluster: %d raw and %d maximality jobs, want none", raw, maximal)
			}
		}
	}
}

func TestCovered(t *testing.T) {
	s := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 60, End: 70}, {Start: 90, End: 120}}
	if got := covered(s, kids); got != 50 {
		t.Fatalf("covered = %d, want 50", got)
	}
}

package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"spm/internal/core"
	"spm/internal/service"
)

// Workload is a job list and how it is driven. Everything in it is a pure
// function of the workload name and the seed.
type Workload struct {
	Name string `json:"name"`
	// Cluster drives the jobs through cluster.Coordinator.Check over two
	// nodes instead of one node's HTTP API.
	Cluster bool                   `json:"cluster"`
	Jobs    []service.CheckRequest `json:"jobs"`
}

// workloads names the workloads in the order BENCHMARK.json lists them.
var workloads = []string{"bulk", "cluster"}

// policies is every allow-policy over three inputs, cycled through so each
// list carries the same policy mix whatever the seed.
var policies = []string{"", "{1}", "{2}", "{3}", "{1,2}", "{1,3}", "{2,3}", "all"}

// Generate builds the workload's job list from the seed.
func Generate(name string, seed int64) (*Workload, error) {
	r := rand.New(rand.NewSource(seed))
	switch name {
	case "bulk":
		return bulkList(r)
	case "cluster":
		return clusterList(r)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
}

// Encode renders the workload canonically; equal seeds give equal bytes.
func (w *Workload) Encode() []byte {
	b, err := json.Marshal(w)
	if err != nil {
		panic(err) // plain data: cannot fail
	}
	return b
}

// Sizes of the job lists. A run repeats its list in rounds, so these set
// the work per round, not per run.
const (
	bulkJobs    = 96
	clusterJobs = 32
)

// Every jobsPerStratum job positions of a kind take different programs
// from one stratum of strataWidth programs of similar cost. The programs
// come from the pool files (pool-<workload>.txt), written by
// TestCalibratePool: progen programs drawn from a constant seed, each with
// the CPU time of a canonical check of its kind, sorted by that cost.
// Consecutive programs of one kind form a stratum. So a list's cost
// profile — and with it the latency percentiles, which on these short
// lists are set by a few costly jobs — is nearly the same for every run
// seed, while the seed still chooses which programs run.
const (
	strataWidth    = 4
	jobsPerStratum = 2
)

//go:embed pool-bulk.txt pool-cluster.txt
var poolFiles embed.FS

// pool is a workload's calibrated programs by kind (see kindOf), cheapest
// first.
type pool map[string][]pooled

type pooled struct {
	costUS  int64
	program string
}

// poolMark starts each program of a pool file: "%% <kind> <cost_us>" on
// a line of its own, followed by the program text. Lines before the first
// mark are comments.
const poolMark = "%% "

func loadPool(workload string) (pool, error) {
	data, err := poolFiles.ReadFile("pool-" + workload + ".txt")
	if err != nil {
		return nil, err
	}
	p := pool{}
	kind := ""
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, poolMark); ok {
			var cost int64
			if _, err := fmt.Sscanf(rest, "%s %d", &kind, &cost); err != nil {
				return nil, fmt.Errorf("pool-%s.txt: bad mark %q", workload, line)
			}
			p[kind] = append(p[kind], pooled{costUS: cost})
			continue
		}
		if progs := p[kind]; len(progs) > 0 {
			progs[len(progs)-1].program += line
		}
	}
	return p, nil
}

// draw returns n programs of a kind, cheapest strata first:
// jobsPerStratum different programs from each stratum, chosen by r.
func (p pool) draw(r *rand.Rand, kind string, n int) ([]string, error) {
	progs := p[kind]
	if want := n / jobsPerStratum * strataWidth; len(progs) < want {
		return nil, fmt.Errorf("pool has %d %s programs, want at least %d", len(progs), kind, want)
	}
	var out []string
	for s := 0; len(out) < n; s++ {
		for _, j := range r.Perm(strataWidth)[:jobsPerStratum] {
			out = append(out, progs[s*strataWidth+j].program)
		}
	}
	return out, nil
}

// kindOf names a request's kind: what the check runs, which sets its cost
// far more than the program does.
func kindOf(req service.CheckRequest) string {
	switch {
	case req.Raw:
		return "raw"
	case req.Maximal:
		return "maximal"
	}
	return "instrumented"
}

// values is k consecutive integers from a small seeded offset.
func values(r *rand.Rand, k int) []int64 {
	lo := int64(r.Intn(7) - 3)
	return core.Range(lo, lo+int64(k-1))
}

// bulkList: arity-3 checks of 30–40 values per axis (27k–64k tuples). Job
// i is instrumented soundness, raw soundness or instrumented soundness
// plus maximality by i mod 3, each kind cycling through all eight
// policies, and takes the (i/3)-th program drawn for its kind; the axis
// sizes are spread evenly over 30–40. The seed draws the programs within
// their strata, each job's value offset and the order.
func bulkList(r *rand.Rand) (*Workload, error) {
	p, err := loadPool("bulk")
	if err != nil {
		return nil, err
	}
	progs := map[string][]string{}
	for _, kind := range []string{"instrumented", "raw", "maximal"} {
		if progs[kind], err = p.draw(r, kind, bulkJobs/3); err != nil {
			return nil, err
		}
	}
	w := &Workload{Name: "bulk"}
	for i := 0; i < bulkJobs; i++ {
		req := service.CheckRequest{
			Policy:  policies[(i/3)%len(policies)],
			Raw:     i%3 == 1,
			Maximal: i%3 == 2,
		}
		req.Program = progs[kindOf(req)][i/3]
		req.Domain = values(r, 30+(i*5)%11)
		w.Jobs = append(w.Jobs, req)
	}
	r.Shuffle(len(w.Jobs), func(i, j int) { w.Jobs[i], w.Jobs[j] = w.Jobs[j], w.Jobs[i] })
	return w, nil
}

// clusterList: instrumented soundness-only arity-3 checks of 47–48 values per
// axis (104k–111k tuples). Surveillance is sound for its own policy
// (Theorem 3), so every shard runs to the end. Job i takes the i-th
// program drawn; the seed draws the programs within their strata, each
// job's value offset and the order.
func clusterList(r *rand.Rand) (*Workload, error) {
	p, err := loadPool("cluster")
	if err != nil {
		return nil, err
	}
	progs, err := p.draw(r, "instrumented", clusterJobs)
	if err != nil {
		return nil, err
	}
	w := &Workload{Name: "cluster", Cluster: true}
	for i := 0; i < clusterJobs; i++ {
		w.Jobs = append(w.Jobs, service.CheckRequest{
			Program: progs[i],
			Policy:  policies[i%len(policies)],
			Domain:  values(r, 47+i%2),
		})
	}
	r.Shuffle(len(w.Jobs), func(i, j int) { w.Jobs[i], w.Jobs[j] = w.Jobs[j], w.Jobs[i] })
	return w, nil
}

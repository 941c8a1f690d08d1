package cluster

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"spm/internal/service"
)

// benchDomain is 400 values per axis × arity 2 = 160,000 tuples — the
// ≥160k sweep the cluster perf trajectory (BENCH_cluster.json) tracks
// across commits, 1-node vs 2-node.
const benchTuples = 160_000

func benchmarkCluster(b *testing.B, nNodes int) {
	nodes := make([]string, nNodes)
	for i := range nodes {
		svc := service.New(service.Config{Runners: 2})
		srv := httptest.NewServer(svc.Handler())
		b.Cleanup(func() {
			srv.Close()
			svc.Close()
		})
		nodes[i] = srv.URL
	}
	dom := make([]int64, 400)
	for i := range dom {
		dom[i] = int64(i)
	}
	req := service.CheckRequest{Program: soundProg, Policy: "{2}", Domain: dom}
	coord, err := New(Config{Nodes: nodes, Shards: 4 * nNodes})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := coord.Check(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Soundness.Sound || rep.Soundness.Checked != benchTuples {
			b.Fatalf("bad verdict: %+v", rep.Soundness)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(benchTuples)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkClusterCheck measures one whole distributed verdict — shard
// split, HTTP dispatch, remote sweeps, merge — over a 160k-tuple domain.
// The 1-node row isolates the coordination overhead against the in-process
// Sweep benchmarks; the 2-node row is the scaling trajectory (in CI both
// nodes share one machine, so the interesting signal is coordination cost,
// not speedup).
func BenchmarkClusterCheck(b *testing.B) {
	for _, nodes := range []int{1, 2} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			benchmarkCluster(b, nodes)
		})
	}
}

// benchmarkStraggler runs the same 160k-tuple check on a 3-node fleet
// whose third node is a deterministic straggler (the serve-side throttle
// hook naps it every chunk). The nosteal row eats the straggler's tail
// latency; the steal row steals the back half of its remaining range and
// speculates the stragglers away, so the delta between the two rows is
// the price of a slow node with the interventions off and on.
func benchmarkStraggler(b *testing.B, steal bool) {
	nodes := make([]string, 3)
	for i := range nodes {
		cfg := service.Config{Runners: 2}
		if i == 2 {
			cfg.Throttle = 10 * time.Millisecond
		}
		svc := service.New(cfg)
		srv := httptest.NewServer(svc.Handler())
		b.Cleanup(func() {
			srv.Close()
			svc.Close()
		})
		nodes[i] = srv.URL
	}
	dom := make([]int64, 400)
	for i := range dom {
		dom[i] = int64(i)
	}
	req := service.CheckRequest{Program: soundProg, Policy: "{2}", Domain: dom}
	cfg := Config{Nodes: nodes, Shards: 6}
	if steal {
		cfg.StealThreshold = 2
		cfg.Speculate = true
		cfg.StealInterval = 5 * time.Millisecond
	}
	coord, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var stolen, speculated int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := coord.Check(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Soundness.Sound || rep.Soundness.Checked != benchTuples {
			b.Fatalf("bad verdict: %+v", rep.Soundness)
		}
		stolen += rep.Stolen
		speculated += rep.Speculated
	}
	b.StopTimer()
	b.ReportMetric(float64(benchTuples)*float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
	b.ReportMetric(float64(stolen)/float64(b.N), "stolen/op")
	b.ReportMetric(float64(speculated)/float64(b.N), "speculated/op")
}

// BenchmarkClusterStraggler is the straggler row pair in
// BENCH_cluster.json: the same scenario with stealing and speculation off
// and on.
func BenchmarkClusterStraggler(b *testing.B) {
	for _, mode := range []struct {
		name  string
		steal bool
	}{{"nosteal", false}, {"steal", true}} {
		b.Run(mode.name, func(b *testing.B) {
			benchmarkStraggler(b, mode.steal)
		})
	}
}

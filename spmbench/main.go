// Command spmbench is the repository's end-to-end benchmark: it drives
// seeded job lists through an in-process `spm serve` (POST /v2/check, then
// the job's done event on GET /v2/jobs/{id}/events) or through
// cluster.Coordinator.Check over two in-process nodes, checks every
// verdict against a direct check.Run, and prints the end-to-end metrics —
// or, with --trace 1, the per-layer metrics of a separate traced run.
//
//	bash spmbench/run.sh --workload bulk --seed 1 --seconds 30 --trace 0
//
// It runs from the repository root, where it keeps its scratch files under
// .bench_build/. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// heldOutSeed is never used while tuning the benchmark or a change;
// a claimed gain must also hold on it.
const heldOutSeed = 20261017

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "spmbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: bulk or cluster")
	seed := flag.Int64("seed", 1, "seed of the job list")
	seconds := flag.Int("seconds", 30, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	wl, err := Generate(*name, *seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	env := environment(dir)
	env.Workload, env.Seed, env.Seconds, env.Trace, env.HeldOutSeed = *name, *seed, *seconds, *trace, heldOutSeed
	line, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", line)

	ctx := context.Background()
	b, err := newBench(ctx, wl, dir)
	if err != nil {
		return err
	}
	var metrics map[string]metric
	if *trace == 1 {
		metrics, err = b.traced(ctx, fmt.Sprintf(".bench_build/trace-%s-%d.json", *name, *seed))
	} else {
		metrics, err = b.measure(ctx, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		return err
	}
	fmt.Printf("verdicts attempted %d, failed %d (%.4f%%)\n", b.attempted, b.failed, 100*float64(b.failed)/float64(max(b.attempted, 1)))
	out, err := json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Package spm reproduces Jones & Lipton, "The Enforcement of Security
// Policies for Computation" (SOSP 1975; JCSS 17:35–55, 1978), as a Go
// library: the formal model of security policies, protection mechanisms,
// soundness and completeness (internal/core); the flowchart language and
// the surveillance protection mechanism (internal/flowchart,
// internal/surveillance); the high-water-mark comparison, the program
// transforms, and static certification (internal/highwater,
// internal/transform, internal/static); and the paper's worked-example
// machines — Fenton's data-mark machine, the one-way tape, the paged
// memory behind the password attack, the logon program, the file system,
// and the history-dependent statistical database.
//
// Every exhaustive verdict goes through one entry point, internal/check:
//
//	v, err := check.Run(ctx, check.Spec{
//	    Kind:        check.Soundness, // or Maximality, PassCount
//	    Mechanism:   m,
//	    Policy:      pol,
//	    Domain:      core.Grid(2, 0, 1, 2),
//	    Observation: core.ObserveValue,
//	}, check.WithWorkers(8))
//
// check.Run sweeps the domain on the parallel work-stealing engine in
// internal/sweep (compiled fast path included) and honours ctx: cancelling
// it stops the enumeration within one chunk. The CLI (`spm check`,
// `spm sweep`), the policy-checking service (`spm serve`, the v2 HTTP
// API in internal/service), and the experiment tables all route through
// it. Every checker evaluates mechanisms through one seam: the engine
// hands out innermost-axis strides (sweep.RunBatchContext) and each
// mechanism runs them on its own core.BatchRunFunc — a scalar run is a
// one-lane stride, and a mechanism with no compiled form runs lane by
// lane through Mechanism.Run.
//
// The sweep walks each chunk in odometer order (innermost input fastest)
// and memoizes the shared execution prefix across that axis: a compiled
// program (flowchart.Compile) records a Snapshot — register file, program
// counter, step count — at the first instruction that touches the
// innermost input (flowchart.Compiled.RunSnapshot), and every further
// tuple of the row replays only the program tail
// (flowchart.Compiled.RunFromSnapshot), falling back to full runs
// whenever no valid snapshot exists. Verdicts are byte-identical with
// memoization on or off; check.WithMemo(false) and check.WithCompiled(false)
// are the ablation knobs.
//
// The same verdict scales out in three layers of the one sharding idea.
// Inside one process, internal/sweep hands contiguous chunks of the
// domain's mixed-radix index space [0, Size) to worker goroutines, and the
// checkers merge per-worker view tables. Inside one node, internal/service
// wraps that in one run queue of jobs, popped by a fixed set of runners,
// with a content-addressed compile cache. Across nodes, internal/cluster — the coordinator behind
// `spm cluster` — splits the same index space into contiguous shards
// (Spec.Shard, wire fields offset/count), dispatches them to `spm serve`
// workers over the v2 API, and folds the partial verdicts with
// check.Merge: each shard's result carries per-class evidence tables, so a
// conflict between inputs that landed on different nodes is caught exactly
// as a conflict between two workers' tables is. Failed or refused shards
// are re-dispatched to surviving nodes (the verdict stays exact), and a
// definitive counterexample cancels the outstanding shards via
// DELETE /v2/jobs/{id}.
//
// See README.md for the quickstart, the package map, the endpoint table
// of the v2 service API (batch submit, job cancellation, progress
// streaming, offset/count sharding), the measured performance trajectory,
// and the cluster-mode two-terminal walkthrough. DESIGN.md holds the
// architecture: the four layers, the mixed-radix index space they share,
// the snapshot-validity rules behind prefix memoization, and the guide
// for adding a new machine, policy, or verdict kind. The experiment
// registry in
// internal/experiments maps each ID (E1–E20) to the paper artifact it
// reproduces; the benchmarks in bench_test.go regenerate one measurement
// per experiment, and the cmd/spm-experiments binary prints the full
// tables.
package spm

// Command spm is the driver for the security-policy-mechanism library: it
// parses flowchart programs in the DSL, runs them, instruments them with
// the surveillance or high-water protection mechanisms of Jones & Lipton,
// certifies them statically, and checks soundness over finite domains.
//
// Usage:
//
//	spm run       [-trace] file.fc input...
//	spm instrument [-policy {i,j}] [-variant untimed|timed|highwater] file.fc
//	spm certify   [-policy {i,j}] file.fc
//	spm specialize [-policy {i,j}] file.fc
//	spm check     [-policy {i,j}] [-variant ...] [-domain 0,1,2] [-time] file.fc
//	spm sweep     [-policy {i,j}] [-variant ...] [-domain 0,1,2] [-workers N] [-chunk N] [-time] [-maximal] [-raw] file.fc
//	spm serve     [-addr :8135] [-runners N] [-queue N] [-sweep-workers N] [-cache N]
//	spm cluster   -nodes host:port,... [-shards N] [-retries N] [-steal-threshold X] [-speculate] [-admin :addr] [-nodes-file F] [-policy ...] [-domain ...] [-maximal] file.fc
//	spm loadgen   [-addr URL] [-n N] [-c N] [-maximal-every K] [-job-timeout D] [-program file.fc]
//	spm top       [-addr URL] [-interval D] [-once]
//	spm trace     [-addr URL] job-id
//	spm dot       file.fc
//
// Programs use the flowchart DSL (see package spm/internal/flowchart):
//
//	program demo
//	inputs x1 x2
//	    if x2 == 0 goto A else B
//	A:  y := x1
//	    halt
//	B:  violation "denied"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"spm/internal/check"
	"spm/internal/core"
	"spm/internal/flowchart"
	"spm/internal/service"
	"spm/internal/static"
	"spm/internal/surveillance"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "spm:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return usage()
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:])
	case "instrument":
		return cmdInstrument(args[1:])
	case "certify":
		return cmdCertify(args[1:])
	case "specialize":
		return cmdSpecialize(args[1:])
	case "check":
		return cmdCheck(args[1:])
	case "sweep":
		return cmdSweep(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "cluster":
		return cmdCluster(args[1:])
	case "loadgen":
		return cmdLoadgen(args[1:])
	case "top":
		return cmdTop(args[1:])
	case "trace":
		return cmdTrace(args[1:])
	case "dot":
		return cmdDot(args[1:])
	case "help", "-h", "--help":
		return usage()
	default:
		return fmt.Errorf("unknown subcommand %q (try: spm help)", args[0])
	}
}

func usage() error {
	fmt.Fprintln(os.Stderr, `usage:
  spm run        [-trace] file.fc input...
  spm instrument [-policy {i,j}] [-variant untimed|timed|highwater] file.fc
  spm certify    [-policy {i,j}] file.fc
  spm specialize [-policy {i,j}] file.fc
  spm check      [-policy {i,j}] [-variant ...] [-domain 0,1,2] [-time] file.fc
  spm sweep      [-policy {i,j}] [-variant ...] [-domain 0,1,2] [-workers N] [-chunk N] [-time] [-maximal] [-raw] file.fc
  spm serve      [-addr :8135] [-runners N] [-queue N] [-sweep-workers N] [-cache N]
  spm cluster    -nodes host:port,... [-shards N] [-retries N] [-steal-threshold X] [-speculate] [-admin :addr] [-nodes-file F] [-policy ...] [-variant ...] [-domain ...] [-time] [-raw] [-maximal] file.fc
  spm loadgen    [-addr URL] [-n N] [-c N] [-maximal-every K] [-job-timeout D] [-program file.fc] [-policy ...] [-domain ...]
  spm top        [-addr URL] [-interval D] [-once]
  spm trace      [-addr URL] job-id
  spm dot        file.fc`)
	return nil
}

func loadProgram(path string) (*flowchart.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return flowchart.Parse(string(data))
}

func parseDomain(spec string) ([]int64, error) {
	var values []int64
	for _, part := range strings.Split(spec, ",") {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad domain value %q", part)
		}
		values = append(values, v)
	}
	return values, nil
}

// checkSetup is everything a soundness check needs, assembled from the
// flags shared by the check and sweep subcommands.
type checkSetup struct {
	prog *flowchart.Program
	m    core.Mechanism
	pol  core.Policy
	dom  core.Domain
	obs  core.Observation
}

// buildCheck loads the program and constructs the mechanism (instrumented
// or raw), policy, domain, and observation from the common flag values.
func buildCheck(file, policy, variant, domain string, timed, raw bool) (*checkSetup, error) {
	p, err := loadProgram(file)
	if err != nil {
		return nil, err
	}
	allowed, err := service.ParsePolicy(policy, p.Arity())
	if err != nil {
		return nil, err
	}
	values, err := parseDomain(domain)
	if err != nil {
		return nil, err
	}
	var m core.Mechanism
	if raw {
		m = core.FromProgram(p)
	} else {
		v, err := service.ParseVariant(variant)
		if err != nil {
			return nil, err
		}
		m, err = surveillance.Mechanism(p, allowed, v)
		if err != nil {
			return nil, err
		}
	}
	obs := core.ObserveValue
	if timed {
		obs = core.ObserveValueAndTime
	}
	return &checkSetup{
		prog: p,
		m:    m,
		pol:  core.NewAllowSet(p.Arity(), allowed),
		dom:  core.Grid(p.Arity(), values...),
		obs:  obs,
	}, nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	trace := fs.Bool("trace", false, "print each executed box")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) < 1 {
		return fmt.Errorf("run: need a program file")
	}
	p, err := loadProgram(rest[0])
	if err != nil {
		return err
	}
	inputs := make([]int64, 0, len(rest)-1)
	for _, a := range rest[1:] {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			return fmt.Errorf("run: bad input %q: %v", a, err)
		}
		inputs = append(inputs, v)
	}
	var tracer flowchart.Tracer
	if *trace {
		tracer = func(id flowchart.NodeID, n *flowchart.Node, env flowchart.Env) {
			switch n.Kind {
			case flowchart.KindAssign:
				fmt.Printf("  [%3d] %s := %s\n", id, n.Target, n.Expr)
			case flowchart.KindDecision:
				fmt.Printf("  [%3d] if %s → %v\n", id, n.Cond, n.Cond.Eval(env))
			default:
				fmt.Printf("  [%3d] %s\n", id, n.Kind)
			}
		}
	}
	res, err := p.RunBudget(inputs, flowchart.DefaultMaxSteps, tracer)
	if err != nil {
		return err
	}
	fmt.Println(res)
	return nil
}

func cmdInstrument(args []string) error {
	fs := flag.NewFlagSet("instrument", flag.ContinueOnError)
	policy := fs.String("policy", "{}", "allowed input indices, e.g. {1,3} or all")
	variant := fs.String("variant", "untimed", "untimed, timed, or highwater")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("instrument: need exactly one program file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	allowed, err := service.ParsePolicy(*policy, p.Arity())
	if err != nil {
		return err
	}
	v, err := service.ParseVariant(*variant)
	if err != nil {
		return err
	}
	m, err := surveillance.Instrument(p, allowed, v)
	if err != nil {
		return err
	}
	fmt.Print(flowchart.Print(m))
	return nil
}

func cmdCertify(args []string) error {
	fs := flag.NewFlagSet("certify", flag.ContinueOnError)
	policy := fs.String("policy", "{}", "allowed input indices")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("certify: need exactly one program file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	allowed, err := service.ParsePolicy(*policy, p.Arity())
	if err != nil {
		return err
	}
	rep, err := static.Certify(p, allowed)
	if err != nil {
		return err
	}
	fmt.Println(rep)
	return nil
}

func cmdSpecialize(args []string) error {
	fs := flag.NewFlagSet("specialize", flag.ContinueOnError)
	policy := fs.String("policy", "{}", "allowed input indices")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("specialize: need exactly one program file")
	}
	p, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	allowed, err := service.ParsePolicy(*policy, p.Arity())
	if err != nil {
		return err
	}
	gm, err := static.Specialize(p, allowed, -1)
	if err != nil {
		return err
	}
	accept, deny := gm.Leaves()
	fmt.Printf("specialised mechanism (%d accepting, %d denying residuals):\n%s", accept, deny, gm.Describe())
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	policy := fs.String("policy", "{}", "allowed input indices")
	variant := fs.String("variant", "untimed", "untimed, timed, or highwater")
	domain := fs.String("domain", "0,1,2", "comma-separated values every input ranges over")
	timed := fs.Bool("time", false, "observe running time as well as the value")
	raw := fs.Bool("raw", false, "check the bare program instead of instrumenting")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("check: need exactly one program file")
	}
	s, err := buildCheck(fs.Arg(0), *policy, *variant, *domain, *timed, *raw)
	if err != nil {
		return fmt.Errorf("check: %w", err)
	}
	// One interpreted worker preserves the sequential reference checker's
	// semantics: enumeration order (and therefore the reported witness
	// pair) matches core.CheckSoundness, and every tuple runs through the
	// interpreter rather than the compiled fast path — keeping `spm check`
	// an independent oracle against `spm sweep`'s compiled verdicts.
	v, err := check.Run(interruptContext(), check.Spec{
		Kind:        check.Soundness,
		Mechanism:   s.m,
		Policy:      s.pol,
		Domain:      s.dom,
		Observation: s.obs,
	}, check.WithWorkers(1), check.WithCompiled(false))
	if err != nil {
		return err
	}
	fmt.Println(v)
	return nil
}

// interruptContext is the CLI's check context: ^C cancels the sweep, which
// stops within one chunk instead of grinding out the rest of the domain.
// Once the context is done the handler is released, so a second ^C gets
// the default behaviour and can still kill a chunk that grinds too long.
func interruptContext() context.Context {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	context.AfterFunc(ctx, stop)
	return ctx
}

// cmdSweep is cmdCheck on the parallel sweep engine: it instruments the
// program (or takes it raw), runs the chunked work-stealing soundness check
// — compiled fast path included, since the mechanism wraps a flowchart —
// and reports the verdict with throughput. With -maximal the same sweep
// also checks whether the mechanism is the Theorem 2 maximal sound
// mechanism for the bare program.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	policy := fs.String("policy", "{}", "allowed input indices, e.g. {1,3} or all")
	variant := fs.String("variant", "untimed", "untimed, timed, or highwater")
	domain := fs.String("domain", "0,1,2", "comma-separated values every input ranges over")
	workers := fs.Int("workers", 0, "sweep workers (0 = lend idle CPUs)")
	chunk := fs.Int("chunk", 0, "tuples a sweep worker claims at a time (0 = auto)")
	timed := fs.Bool("time", false, "observe running time as well as the value")
	raw := fs.Bool("raw", false, "check the bare program instead of instrumenting")
	maximal := fs.Bool("maximal", false, "also check maximality against the bare program")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("sweep: need exactly one program file")
	}
	s, err := buildCheck(fs.Arg(0), *policy, *variant, *domain, *timed, *raw)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	ctx := interruptContext()
	opts := []check.Option{check.WithWorkers(*workers), check.WithChunk(*chunk)}

	spec := check.Spec{
		Kind:        check.Soundness,
		Mechanism:   s.m,
		Policy:      s.pol,
		Domain:      s.dom,
		Observation: s.obs,
	}
	if *maximal {
		// One sweep decides both: a Maximality verdict carries the
		// mechanism's soundness.
		spec.Kind, spec.Program = check.Maximality, core.FromProgram(s.prog)
	}
	start := time.Now()
	v, err := check.Run(ctx, spec, opts...)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Println(v.SoundnessReport())
	rate := float64(v.Checked) / elapsed.Seconds()
	fmt.Printf("swept %d inputs in %v (%.0f inputs/s)\n", v.Checked, elapsed.Round(time.Microsecond), rate)
	if *maximal {
		fmt.Println(v)
	}
	return nil
}

func cmdDot(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("dot: need exactly one program file")
	}
	p, err := loadProgram(args[0])
	if err != nil {
		return err
	}
	fmt.Print(flowchart.Dot(p))
	return nil
}

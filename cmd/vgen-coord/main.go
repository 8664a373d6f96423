// Command vgen-coord runs a supervised distributed sweep: it plans the
// shards, drives them through internal/coord's retry state machine —
// per-attempt timeouts, exponential backoff, worker quarantine,
// work-stealing of stragglers — and renders the merged tables, which are
// byte-identical to a monolithic vgen-eval run of the same sweep.
//
// Usage:
//
//	vgen-coord -dir STATE [-backend NAME] [-seed N] [-n N] [-quick]
//	           [-corpus-files N] [-workers N]
//	           [-experiment all|table3|table4|fig6|fig7|headline|passk|problems]
//	           [-shards N] [-parallel N] [-proc]
//	           [-timeout D] [-max-attempts N] [-backoff D] [-backoff-cap D]
//	           [-steal-after D] [-unhealthy-after N]
//	           [-endpoint URL] [-auth-env VAR] [-remote-timeout D]
//	           [-remote-budget D] [-remote-inflight N]
//	           [-fault kind:shard:attempt,...] [-allow-partial] [-quiet]
//	           [-store DIR]
//
// The sweep flags (-seed, -n, -quick, -corpus-files, -workers, -backend
// and the remote flags) are shared with vgen-eval and mean the same
// there, so a supervised and a monolithic run of one sweep take the same
// flags.
//
// -dir is the durable state directory: shard plans, validated shard
// results, and in-progress attempt files live there. Rerunning on the
// same directory resumes — shards whose result files decode-validate are
// adopted without execution, so a killed coordinator costs only the work
// in flight.
//
// -store points at a persistent result store (DESIGN.md Section 14):
// cells already resident under this sweep's identity are adopted before
// shards are planned — a fully warm sweep completes without launching a
// single worker — and validated shard results merge back into the store
// afterward. Only the coordinator touches the store directory; workers
// never do, preserving the one-writer-per-directory contract.
//
// By default attempts run in-process. -proc launches each attempt as a
// worker subprocess, so a worker crash, OOM kill, or hang is isolated
// from the coordinator; the supervision behavior is identical either
// way. A worker is this same binary re-executed with the coordinator's
// whole command line plus a hidden worker-mode plan and result path, so
// it inherits every sweep flag. The command line must therefore be flags
// only.
//
// -fault injects deterministic failures (crash, hang, truncate, corrupt;
// "*" for every attempt of a shard) at the supervision boundary — the
// fault-injection harness, exposed for demos and CI gates. Injected or
// real, a failure is retried with backoff until -max-attempts; a shard
// that exhausts its budget degrades the run to an explicit partial
// result, which exits non-zero unless -allow-partial.
//
// -endpoint points every worker at a vgen-serve instance (implies
// -backend remote; DESIGN.md Section 13). The auth token never appears
// on a command line: -auth-env names the environment variable holding
// it, which -proc workers inherit. The two retry layers compose:
// transport retries (with backoff and circuit breaking) absorb transient
// network faults inside a shard attempt; anything that outlives them
// surfaces as missing cells, fails the shard's validation, and spends
// one shard-level retry (-max-attempts) — the shard budget is never
// consumed by a fault the transport already healed.
//
// The per-shard event stream (plan/resume/start/steal/retry/quarantine/
// done) goes to stderr as it happens; tables go to stdout at the end.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/harness"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vgen-coord: "+format+"\n", args...)
	os.Exit(1)
}

// cli is one parsed vgen-coord command line.
type cli struct {
	sweep *core.Flags

	experiment     string
	shards         int
	parallel       int
	dir            string
	timeout        time.Duration
	maxAttempts    int
	backoff        time.Duration
	backoffCap     time.Duration
	stealAfter     time.Duration
	unhealthyAfter int
	proc           bool
	storeDir       string
	faultSpec      string
	allowPartial   bool
	quiet          bool

	// Hidden worker mode: what -proc execs. Deliberately undocumented in
	// the usage string — the coordinator builds these command lines.
	workerPlan string
	workerOut  string
}

// parseArgs defines vgen-coord's flags on fs and parses args with them.
// The command line must be flags only, because -proc workers re-execute
// it with the worker flags appended: a stray argument would end flag
// parsing before them.
func parseArgs(fs *flag.FlagSet, args []string) (*cli, error) {
	c := &cli{sweep: core.RegisterFlags(fs)}
	fs.StringVar(&c.experiment, "experiment", "all", "which cell-based artifact(s) to sweep and render")
	fs.IntVar(&c.shards, "shards", 4, "partition count of the sweep")
	fs.IntVar(&c.parallel, "parallel", 2, "concurrent worker slots")
	fs.StringVar(&c.dir, "dir", "", "durable state directory (required); rerun on the same directory resumes")
	fs.DurationVar(&c.timeout, "timeout", 0, "per-attempt wall-clock budget (0 = none)")
	fs.IntVar(&c.maxAttempts, "max-attempts", 3, "per-shard attempt budget, speculative duplicates included")
	fs.DurationVar(&c.backoff, "backoff", 100*time.Millisecond, "base retry delay, doubling per attempt")
	fs.DurationVar(&c.backoffCap, "backoff-cap", 5*time.Second, "retry delay ceiling")
	fs.DurationVar(&c.stealAfter, "steal-after", 0, "age after which an idle slot speculatively duplicates a straggler (0 = off)")
	fs.IntVar(&c.unhealthyAfter, "unhealthy-after", 3, "consecutive failures that quarantine a worker slot")
	fs.BoolVar(&c.proc, "proc", false, "run each attempt as a worker subprocess instead of in-process")
	fs.StringVar(&c.storeDir, "store", "", "persistent result store directory: resident cells are adopted before shards are planned, and validated results merge back (coordinator-only; workers never touch the store)")
	fs.StringVar(&c.faultSpec, "fault", "", "inject failures: kind:shard:attempt[,...] with kind crash|hang|truncate|corrupt and '*' for every attempt")
	fs.BoolVar(&c.allowPartial, "allow-partial", false, "exit 0 on a partial result (missing shards/cells are reported either way)")
	fs.BoolVar(&c.quiet, "quiet", false, "suppress the per-shard event stream")
	fs.StringVar(&c.workerPlan, "worker-plan", "", "worker mode: execute this serialized shard plan")
	fs.StringVar(&c.workerOut, "worker-out", "", "worker mode: write the shard result file here")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q (vgen-coord takes flags only)", fs.Arg(0))
	}
	return c, nil
}

// worker reports whether this process is a -proc worker.
func (c *cli) worker() bool { return c.workerPlan != "" || c.workerOut != "" }

// config is the framework configuration of this process: the shared
// sweep flags, plus the result store in coordinator mode only. A worker
// inherits -store with the rest of the coordinator's command line but
// never opens it, keeping one writer per store directory; its validated
// results reach the store through the coordinator's merge.
func (c *cli) config() (core.Config, error) {
	cfg, err := c.sweep.Config()
	if err == nil && !c.worker() {
		cfg.StoreDir = c.storeDir
	}
	return cfg, err
}

// workerArgv is the command line of one -proc worker attempt: exe
// re-executed with the coordinator's own arguments plus the attempt's
// plan and result paths, so every worker is configured exactly like its
// coordinator. The auth token stays out of argv: -auth-env names an
// environment variable, which the worker inherits.
func workerArgv(exe string, args []string, a coord.Attempt) []string {
	argv := append([]string{exe}, args...)
	return append(argv, "-worker-plan", a.PlanPath, "-worker-out", a.OutPath)
}

func main() {
	c, err := parseArgs(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "vgen-coord: %v\n", err)
		os.Exit(2)
	}
	coreCfg, err := c.config()
	if err != nil {
		fail("%v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if c.worker() {
		if c.workerPlan == "" || c.workerOut == "" {
			fail("worker mode needs both -worker-plan and -worker-out")
		}
		runWorker(ctx, c.workerPlan, c.workerOut, coreCfg)
		return
	}

	if c.dir == "" {
		fail("-dir is required: the durable state directory is what makes a coordinator resumable")
	}
	rejectNonCell(c.experiment)
	faults, err := coord.ParseFaultPlan(c.faultSpec)
	if err != nil {
		fail("%v", err)
	}

	fw, err := core.New(coreCfg)
	if err != nil {
		fail("%v", err)
	}

	var launcher coord.Launcher = &coord.FrameworkLauncher{FW: fw}
	if c.proc {
		exe, err := os.Executable()
		if err != nil {
			fail("-proc: %v", err)
		}
		args := os.Args[1:]
		launcher = &coord.ProcLauncher{Argv: func(a coord.Attempt) []string {
			return workerArgv(exe, args, a)
		}}
	}
	if !faults.Empty() {
		launcher = &coord.FaultyLauncher{Inner: launcher, Plan: faults}
	}

	cfg := coord.Config{
		Experiments: []string{c.experiment},
		Shards:      c.shards,
		Workers:     c.parallel,
		Dir:         c.dir,
		Timeout:     c.timeout,
		MaxAttempts: c.maxAttempts,
		BackoffBase: c.backoff,
		BackoffCap:  c.backoffCap,
		StealAfter:  c.stealAfter,

		UnhealthyAfter: c.unhealthyAfter,
		Seed:           coreCfg.Seed,
	}
	if !c.quiet {
		cfg.Events = streamEvent
	}

	res, err := coord.Run(ctx, fw, cfg, launcher)
	if err != nil {
		fw.Close()
		fail("%v", err)
	}
	fmt.Fprint(os.Stderr, res.Report())
	renderExperiments(harness.FromResults(res.Set, coreCfg.Sweep), c.experiment)
	if err := fw.Close(); err != nil {
		fail("%v", err)
	}
	if !res.Complete() && !c.allowPartial {
		os.Exit(1)
	}
}

// runWorker is the subprocess side of -proc: execute one serialized
// shard plan under signal cancellation, exactly as vgen-eval -from-plan
// would. Its output counts only after the coordinator's own validation.
func runWorker(ctx context.Context, planPath, outPath string, cfg core.Config) {
	fw, err := core.New(cfg)
	if err != nil {
		fail("worker: %v", err)
	}
	if err := fw.RunPlanFileCtx(ctx, planPath, outPath); err != nil {
		fail("worker: %v", err)
	}
}

// streamEvent renders one supervision event for the live stderr stream.
func streamEvent(e coord.Event) {
	switch e.Kind {
	case coord.EventPlanned:
		fmt.Fprintf(os.Stderr, "coord: shard %d planned\n", e.Shard)
	case coord.EventResume:
		fmt.Fprintf(os.Stderr, "coord: shard %d resumed from durable result\n", e.Shard)
	case coord.EventStart:
		fmt.Fprintf(os.Stderr, "coord: shard %d attempt %d -> slot %d\n", e.Shard, e.Attempt, e.Slot)
	case coord.EventSteal:
		fmt.Fprintf(os.Stderr, "coord: shard %d attempt %d -> slot %d (stolen straggler)\n", e.Shard, e.Attempt, e.Slot)
	case coord.EventDone:
		fmt.Fprintf(os.Stderr, "coord: shard %d done (attempt %d, slot %d)\n", e.Shard, e.Attempt, e.Slot)
	case coord.EventRetry:
		fmt.Fprintf(os.Stderr, "coord: shard %d attempt %d failed: %s; retry in %s\n", e.Shard, e.Attempt, e.Err, e.Delay.Round(time.Millisecond))
	case coord.EventGiveUp:
		fmt.Fprintf(os.Stderr, "coord: shard %d FAILED after %d attempts: %s\n", e.Shard, e.Attempt, e.Err)
	case coord.EventQuarantine:
		fmt.Fprintf(os.Stderr, "coord: slot %d quarantined: %s\n", e.Slot, e.Err)
	default:
		fmt.Fprintf(os.Stderr, "coord: %s %+v\n", e.Kind, e)
	}
}

// rejectNonCell exits 2 unless the experiment is cell-based ("all"
// expands to every cell-based artifact) — only those shard.
func rejectNonCell(experiment string) {
	if experiment == "all" {
		return
	}
	for _, e := range harness.CellExperiments() {
		if e == experiment {
			return
		}
	}
	fmt.Fprintf(os.Stderr, "vgen-coord sweeps cell-based artifacts %v, not %q\n",
		harness.CellExperiments(), experiment)
	os.Exit(2)
}

// renderExperiments prints the selected cell-based artifacts in the
// registry's fixed order, matching vgen-eval -merge output byte for byte.
func renderExperiments(h *harness.Harness, experiment string) {
	for _, r := range harness.Renderers() {
		if !r.Cell {
			continue
		}
		if experiment != "all" && experiment != r.Name {
			continue
		}
		fmt.Println(r.Render(h))
	}
}

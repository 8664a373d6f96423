package main

// The run process: one workload, executed once, in a fresh process so
// the program's process-wide caches start cold exactly as they do for a
// user's `vgen-eval` invocation. It drives the program only through its
// public entry points and reports what it measured as one JSON line.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/remote"
	"repro/internal/store"
	"repro/internal/vlog"
	"repro/internal/wire"
)

// childSpec is what the orchestrator hands one run process.
type childSpec struct {
	Workload   string           `json:"workload"`
	Size       string           `json:"size"`
	Seeds      []int64          `json:"seeds"`
	Width      int              `json:"width"`
	Traced     bool             `json:"traced"`
	Work       string           `json:"work"`       // private scratch directory
	Recordings map[int64]string `json:"recordings"` // family seed -> recording
	Expect     expectation      `json:"expect"`
	TraceOut   string           `json:"trace_out"`
	// SetupOnly makes a set-up process: it makes the workload's set-up
	// calls and exits. WarmStore is the store a distributed-store run
	// left, which its set-up process opens a copy of.
	SetupOnly bool   `json:"setup_only"`
	WarmStore string `json:"warm_store"`
}

// expectation is what the run must reproduce.
type expectation struct {
	Samples int               `json:"samples"`
	Cells   int               `json:"cells"`
	Shards  int               `json:"shards"`
	Seeds   map[int64]seedPin `json:"seeds"`
	// Family holds the cell-artifact digest the untimed preparation
	// rendered from the family sweep it recorded, per seed.
	Family map[int64]string `json:"family"`
}

// childResult is one run's report.
type childResult struct {
	SetupS         float64            `json:"setup_s"` // inside the timed section
	RunS           float64            `json:"run_s"`   // first core.New to verified output
	VerifiedUnixNS int64              `json:"verified_unix_ns"`
	CPUS           float64            `json:"cpu_s"`
	MaxRSSKiB      int64              `json:"max_rss_kib"`
	Samples        int                `json:"samples"`
	Checks         []string           `json:"checks"` // failed checks
	GOMAXPROCS     int                `json:"gomaxprocs"`
	GCPercent      int                `json:"gc_percent"` // as the runtime reports it
	Runtime        map[string]float64 `json:"runtime"`
	Layers         map[string]float64 `json:"layers,omitempty"`
}

// run is the state of one run process.
type run struct {
	spec childSpec
	sz   size
	tr   *tracer
	res  childResult

	start      time.Time
	verified   bool
	parse0     uint64
	parseCalls uint64
	queries    int
	backends   []*tracedBackend
	acc        counters
	shared     eval.SharedCacheStats
	post       map[string]float64 // traced-only measurements made after verification
}

// counters accumulate per-framework statistics across a workload.
type counters struct {
	cells, memoHits, outcomeEntries int
	storeHits, storeMisses          int
	storePersisted                  int
	launches, retries, adopted      int
}

func childMain(specPath string) int {
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench child:", err)
		return 2
	}
	r := &run{post: map[string]float64{}}
	if err := json.Unmarshal(data, &r.spec); err != nil {
		fmt.Fprintln(os.Stderr, "vbench child: spec:", err)
		return 2
	}
	r.sz = sizes[r.spec.Size]
	r.res.GOMAXPROCS = runtime.GOMAXPROCS(0)
	r.res.GCPercent = debug.SetGCPercent(-1)
	debug.SetGCPercent(r.res.GCPercent)
	if r.spec.SetupOnly {
		r.setupOnly()
		return r.report()
	}
	if r.spec.Traced {
		r.tr = newTracer(r.spec.Workload)
	}
	r.parse0 = vlog.ParseCalls()
	root := r.tr.begin("run")
	r.start = time.Now()
	switch r.spec.Workload {
	case "paper-sweep":
		r.paperSweep()
	case "replay-verdict":
		r.replayVerdict()
	case "distributed-store":
		r.distributedStore()
	default:
		r.fail("unknown workload %q", r.spec.Workload)
	}
	if !r.verified {
		r.verify()
	}
	r.tr.end(root)
	if r.tr != nil {
		r.layers()
		if r.spec.TraceOut != "" {
			if err := r.tr.write(r.spec.TraceOut); err != nil {
				r.fail("writing spans: %v", err)
			}
		}
	}
	return r.report()
}

// report prints the run's report as one JSON line.
func (r *run) report() int {
	out, err := json.Marshal(r.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench child:", err)
		return 2
	}
	fmt.Printf("%s\n", out)
	return 0
}

func (r *run) fail(format string, args ...any) {
	r.res.Checks = append(r.res.Checks, fmt.Sprintf(format, args...))
}

// verify closes the timed section: the rendered output has been checked,
// so this is the moment wall time, CPU, and peak RSS are read at.
func (r *run) verify() {
	r.verified = true
	r.res.VerifiedUnixNS = time.Now().UnixNano()
	r.res.RunS = time.Since(r.start).Seconds()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		r.fail("getrusage: %v", err)
	}
	r.res.CPUS = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	r.res.MaxRSSKiB = peakRSSKiB()
	if r.res.MaxRSSKiB == 0 {
		r.fail("no VmHWM in /proc/self/status")
	}
	r.res.Runtime = readRuntime()
	r.parseCalls = vlog.ParseCalls() - r.parse0
	r.shared = eval.SharedStats()
}

// peakRSSKiB is the process's peak resident set, VmHWM. The rusage
// maxrss is no use here: Linux carries it across exec from the process
// that spawned the run, so it would report the orchestrator's peak.
func peakRSSKiB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kib
		}
	}
	return 0
}

func readRuntime() map[string]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return map[string]float64{
		"runtime.gc_cpu_s":  val(s[0].Value),
		"runtime.alloc_mb":  val(s[1].Value) / (1 << 20),
		"runtime.gc_cycles": val(s[2].Value),
	}
}

func digest(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

func (r *run) checkDigest(what string, seed int64, got, want string) {
	if got != want {
		r.fail("%s digest at seed %d is %s, pinned %s", what, seed, got, want)
	}
}

func (r *run) checkFailures(fails []eval.CellFailure) {
	if len(fails) > 0 {
		r.fail("%d unserved cell(s), first %+v: %v", len(fails), fails[0].Coord, fails[0].Err)
	}
}

// checkPlan checks the cell plan against the pinned input size and
// returns its sample count.
func (r *run) checkPlan(p *eval.Plan) int {
	n := 0
	for _, q := range p.Queries() {
		n += q.N
	}
	if n != r.spec.Expect.Samples || p.Len() != r.spec.Expect.Cells {
		r.fail("cell plan has %d samples in %d cells, pinned %d in %d", n, p.Len(), r.spec.Expect.Samples, r.spec.Expect.Cells)
	}
	return n
}

func (r *run) checkDistinct(seed int64, n int) {
	if want := r.spec.Expect.Seeds[seed].DistinctCandidates; n != want {
		r.fail("seed %d: %d distinct candidates, pinned %d", seed, n, want)
	}
}

// newFramework builds a framework through core.New, timing it as set-up.
// Traced runs wrap the runner's backend in the pass-through tracer.
func (r *run) newFramework(cfg core.Config) *core.Framework {
	id := r.tr.begin("core.New")
	t := time.Now()
	fw, err := core.New(cfg)
	r.res.SetupS += time.Since(t).Seconds()
	r.tr.end(id)
	if err != nil {
		r.fail("core.New: %v", err)
		return nil
	}
	if r.tr != nil {
		tb := wrapBackend(fw.Runner.Backend, r.tr, "gen.")
		tb.seed = cfg.Seed
		fw.Runner.Backend = tb.backend()
		r.backends = append(r.backends, tb)
	}
	return fw
}

// closeFramework closes fw, if set-up made one.
func (r *run) closeFramework(fw *core.Framework) {
	if fw == nil {
		return
	}
	if err := fw.Close(); err != nil {
		r.fail("Close: %v", err)
	}
}

// setupOnly makes the set-up calls a run of the workload makes, in the
// order it makes them, and nothing else. Each set-up process is one more
// sample of a fresh process's set-up time; its framework calls run on
// cold process-wide caches, as the run's own do.
func (r *run) setupOnly() {
	switch r.spec.Workload {
	case "paper-sweep":
		r.closeFramework(r.newFramework(r.familyConfig()))
	case "replay-verdict":
		for _, seed := range r.spec.Seeds {
			r.closeFramework(r.newFramework(r.replayConfig(seed)))
		}
	case "distributed-store":
		url, stop := r.serve()
		if stop == nil {
			return
		}
		defer stop()
		cfg := r.remoteConfig(url)
		r.closeFramework(r.newFramework(cfg))
		// The warm framework opens the store a whole run leaves; copying
		// it is not set-up.
		warm := filepath.Join(r.spec.Work, "warm-store")
		if err := copyDir(r.spec.WarmStore, warm); err != nil {
			r.fail("copying the warm store: %v", err)
			return
		}
		cfg.StoreDir = warm
		r.closeFramework(r.newFramework(cfg))
	default:
		r.fail("unknown workload %q", r.spec.Workload)
	}
}

func copyDir(from, to string) error {
	es, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	for _, e := range es {
		name := e.Name()
		data, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// account folds a framework's runner statistics into the workload totals.
func (r *run) account(fw *core.Framework) {
	cs := fw.Runner.CacheStats()
	r.acc.cells += cs.Cells
	r.acc.memoHits += int(cs.CellHits)
	r.acc.outcomeEntries += cs.Entries
	if fw.StoreSource != nil {
		s := fw.StoreSource.Stats()
		r.acc.storeHits += s.Hits
		r.acc.storeMisses += s.Misses
		r.acc.storePersisted += s.Persisted
	}
}

// planFor runs harness.PlanFor over every cell-based artifact.
func (r *run) planFor(fw *core.Framework) *eval.Plan {
	id := r.tr.begin("harness.PlanFor")
	plan, err := fw.Harness.PlanFor(harness.CellExperiments())
	r.tr.end(id)
	if err != nil {
		r.fail("PlanFor: %v", err)
		return nil
	}
	return plan
}

// render renders every renderer (all) or only the cell-based ones, in
// registry order, each followed by a newline as vgen-eval prints it, with
// a span per renderer when tr is non-nil. It returns the whole output and
// the cell-based renderers' part of it.
func render(tr *tracer, h *harness.Harness, all bool) (out, cells string) {
	var b, c strings.Builder
	for _, rd := range harness.Renderers() {
		if !all && !rd.Cell {
			continue
		}
		id := tr.begin("harness.render." + rd.Name)
		text := rd.Render(h) + "\n"
		tr.end(id)
		b.WriteString(text)
		if rd.Cell {
			c.WriteString(text)
		}
	}
	return b.String(), c.String()
}

// timeNewBackend times one gen.New call on its own: core.New builds the
// backend inside its own span, so the traced run constructs it once more
// to split backend construction out of set-up.
func (r *run) timeNewBackend(name string, o gen.Options) {
	if r.tr == nil {
		return
	}
	id := r.tr.begin("gen.New")
	_, err := gen.New(name, o)
	r.tr.end(id)
	if err != nil {
		r.fail("gen.New(%s): %v", name, err)
	}
}

// paperSweep is `vgen-eval -experiment all`: the family backend and all
// thirteen renderers, which pull their cells lazily through the runner.
func (r *run) paperSweep() {
	seed := r.spec.Seeds[0]
	fw := r.newFramework(r.familyConfig())
	if fw == nil {
		return
	}
	defer fw.Close()
	if r.tr != nil {
		fw.Harness.Source = timedSource{inner: fw.Runner, tr: r.tr, queries: &r.queries}
	}
	out, cells := render(r.tr, fw.Harness, true)
	r.checkFailures(fw.Runner.Failures())
	pin := r.spec.Expect.Seeds[seed]
	r.checkDigest("output", seed, digest(out), pin.OutputSHA256)
	r.checkDigest("cells", seed, digest(cells), pin.CellsSHA256)
	r.verify()

	// Untimed from here: input descriptors and the traced extras.
	if plan := r.planFor(fw); plan != nil {
		r.res.Samples = r.checkPlan(plan)
	}
	r.account(fw)
	r.checkDistinct(seed, fw.Runner.CacheStats().Entries)
	r.timeNewBackend("family", gen.Options{Family: model.Config{Seed: seed, CorpusFiles: r.sz.corpusFiles}})
}

func (r *run) familyConfig() core.Config {
	return core.Config{Seed: r.spec.Seeds[0], CorpusFiles: r.sz.corpusFiles, Sweep: r.sz.sweep, Workers: r.spec.Width}
}

func (r *run) replayConfig(seed int64) core.Config {
	return core.Config{Seed: seed, Backend: "replay", Replay: r.spec.Recordings[seed], Sweep: r.sz.sweep, Workers: r.spec.Width}
}

// replayVerdict sweeps several family recordings through the replay
// backend, one framework per seed in one process: plan, RunPlan, and a
// render of the cell results. Generation is a map lookup, so the verdict
// pipeline does the work; the seeds share the process-wide caches but
// not the per-runner ones.
func (r *run) replayVerdict() {
	for _, seed := range r.spec.Seeds {
		fw := r.newFramework(r.replayConfig(seed))
		if fw == nil {
			continue
		}
		plan := r.planFor(fw)
		if plan == nil {
			fw.Close()
			continue
		}
		r.res.Samples += r.checkPlan(plan)
		id := r.tr.begin("eval.cells")
		rs, err := fw.Runner.RunPlan(plan)
		r.tr.end(id)
		r.queries += plan.Len()
		if err != nil {
			r.fail("RunPlan at seed %d: %v", seed, err)
			fw.Close()
			continue
		}
		r.checkFailures(fw.Runner.Failures())
		_, cells := render(r.tr, harness.FromResults(rs, r.sz.sweep), false)
		if miss := rs.Missing(); len(miss) > 0 {
			r.fail("seed %d: %d cell(s) missing from the replayed results", seed, len(miss))
		}
		r.checkDigest("cells", seed, digest(cells), r.spec.Expect.Seeds[seed].CellsSHA256)
		if fam := r.spec.Expect.Family[seed]; digest(cells) != fam {
			r.fail("seed %d: replay digest %s differs from the family digest %s", seed, digest(cells), fam)
		}
		r.account(fw)
		r.checkDistinct(seed, fw.Runner.CacheStats().Entries)
		if err := fw.Close(); err != nil {
			r.fail("Close: %v", err)
		}
	}
	r.verify()
	for _, seed := range r.spec.Seeds {
		r.timeNewBackend("replay", gen.Options{ReplayPath: r.spec.Recordings[seed]})
	}
}

// countingLauncher runs coord attempts in-process and counts them; the
// traced run adds a span per attempt.
type countingLauncher struct {
	inner    coord.Launcher
	tr       *tracer
	launches atomic.Int64 // coord slots launch concurrently
}

func (l *countingLauncher) Launch(ctx context.Context, a coord.Attempt) error {
	id := l.tr.begin("eval.cells")
	err := l.inner.Launch(ctx, a)
	l.tr.end(id)
	l.launches.Add(1)
	return err
}

// distributedStore serves the seed's recording through remote.NewHandler
// on loopback and sweeps it with coord.Run into a fresh result store;
// then a new framework re-runs against the now-warm store, which must
// adopt every cell and launch nothing.
func (r *run) distributedStore() {
	seed := r.spec.Seeds[0]
	url, stop := r.serve()
	if stop == nil {
		return
	}
	defer stop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := r.remoteConfig(url)
	coldDir := filepath.Join(r.spec.Work, "coord-cold")
	cold, fw := r.coordSweep(ctx, cfg, coldDir, seed, false)
	var id store.Identity
	if fw != nil {
		id = fw.SweepIdentity()
		r.closeFramework(fw)
	}
	warm, fw2 := r.coordSweep(ctx, cfg, filepath.Join(r.spec.Work, "coord-warm"), seed, true)
	if warm != nil && warm.StoreAdopted != r.spec.Expect.Cells {
		r.fail("warm run adopted %d cells from the store, want %d", warm.StoreAdopted, r.spec.Expect.Cells)
	}
	if cold != nil {
		for _, c := range cold.Set.Coords() {
			r.res.Samples += c.N
		}
	}
	r.verify()
	if fw2 == nil {
		return
	}
	if r.tr != nil && cold != nil {
		r.postDistributed(fw2, id, cold, coldDir, cfg.StoreDir)
	}
	r.closeFramework(fw2)
	r.timeNewBackend("remote", gen.Options{Remote: gen.RemoteOptions{Endpoint: url}})
}

// serve starts the loopback server of the seed's recording. Loading the
// served backend and starting the server are the distributed system's
// set-up, so they count in setup_s. stop is nil if the server did not
// start.
func (r *run) serve() (url string, stop func()) {
	rec := r.spec.Recordings[r.spec.Seeds[0]]
	t := time.Now()
	defer func() { r.res.SetupS += time.Since(t).Seconds() }()
	id := r.tr.begin("remote.serve")
	defer r.tr.end(id)
	served, err := gen.New("replay", gen.Options{ReplayPath: rec})
	if err != nil {
		r.fail("serving %s: %v", rec, err)
		return "", nil
	}
	if r.tr != nil {
		served = wrapBackend(served, r.tr, "remote.server.").backend()
	}
	srv := remote.NewServer(remote.NewHandler(served, remote.ServerOptions{}))
	ctx, cancel := context.WithCancel(context.Background())
	url, err = srv.Start(ctx, "127.0.0.1:0")
	if err != nil {
		cancel()
		r.fail("remote server: %v", err)
		return "", nil
	}
	return url, func() {
		srv.Close()
		cancel()
	}
}

// remoteConfig is the framework of a distributed-store sweep: the remote
// backend on url, runner width 1 (coord slots make the width), and a
// store in the run's work directory.
func (r *run) remoteConfig(url string) core.Config {
	return core.Config{
		Seed: r.spec.Seeds[0], Backend: "remote", Sweep: r.sz.sweep, Workers: 1,
		StoreDir: filepath.Join(r.spec.Work, "store"),
		Remote:   gen.RemoteOptions{Endpoint: url, MaxInFlight: r.spec.Width},
	}
}

// coordSweep builds a framework on cfg and runs one supervised sweep of
// every cell-based artifact with it, checking the result. A warm run (the
// second on one store) must launch nothing.
func (r *run) coordSweep(ctx context.Context, cfg core.Config, dir string, seed int64, warm bool) (*coord.Result, *core.Framework) {
	fw := r.newFramework(cfg)
	if fw == nil {
		return nil, nil
	}
	l := &countingLauncher{inner: &coord.FrameworkLauncher{FW: fw}, tr: r.tr}
	events := func(e coord.Event) {
		if e.Kind == coord.EventRetry {
			r.acc.retries++
		}
	}
	id := r.tr.begin("coord.Run")
	res, err := coord.Run(ctx, fw, coord.Config{
		Shards: r.spec.Expect.Shards, Workers: r.spec.Width, Dir: dir, Seed: seed, Events: events,
	}, l)
	r.tr.end(id)
	launches := int(l.launches.Load())
	r.acc.launches += launches
	if err != nil {
		r.fail("coord.Run: %v", err)
		return nil, fw
	}
	if !res.Complete() || len(res.MissingCells) > 0 {
		r.fail("coord run incomplete: %s", res.Report())
	}
	if res.Meta.Shards != r.spec.Expect.Shards || len(res.Shards) != r.spec.Expect.Shards {
		r.fail("coord run has %d shards, pinned %d", len(res.Shards), r.spec.Expect.Shards)
	}
	if warm && launches != 0 {
		r.fail("warm run launched %d attempt(s), want 0", launches)
	}
	r.checkFailures(fw.Runner.Failures())
	if err := fw.StoreSource.Err(); err != nil {
		r.fail("store: %v", err)
	}
	_, cells := render(r.tr, harness.FromResults(res.Set, r.sz.sweep), false)
	if miss := res.Set.Missing(); len(miss) > 0 {
		r.fail("%d cell(s) missing from the coord result", len(miss))
	}
	r.checkDigest("cells", seed, digest(cells), r.spec.Expect.Seeds[seed].CellsSHA256)
	r.acc.adopted += res.StoreAdopted
	r.queries += res.Set.Len() - res.StoreAdopted
	r.account(fw)
	if !warm {
		r.checkDistinct(seed, fw.Runner.CacheStats().Entries)
	}
	return res, fw
}

// postDistributed measures the wire and store layers on the artifacts the
// sweep left: it re-merges the validated shard files, reads every cell
// back through the warm store source, and reopens the store to time
// point lookups.
func (r *run) postDistributed(fw *core.Framework, id store.Identity, cold *coord.Result, coldDir, storeDir string) {
	var results []string
	for i := 0; i < r.spec.Expect.Shards; i++ {
		results = append(results, filepath.Join(coldDir, fmt.Sprintf("shard-%d.jsonl", i)))
		r.post["wire.plan_bytes"] += fileSize(filepath.Join(coldDir, fmt.Sprintf("shard-%d.plan.jsonl", i)))
	}
	for _, p := range results {
		r.post["wire.result_bytes"] += fileSize(p)
	}
	sp := r.tr.begin("wire.decode_merge")
	shards, err := core.ReadShardFiles(results)
	var merged *eval.ResultSet
	if err == nil {
		merged, _, _, err = wire.MergePartial(shards)
	}
	r.tr.end(sp)
	if err != nil {
		r.fail("re-merging shard files: %v", err)
	} else if !sameCells(merged, cold.Set) {
		r.fail("re-merged shard files differ from the coord result")
	}

	plan := r.planFor(fw)
	if plan == nil {
		return
	}
	sp = r.tr.begin("store.Cells")
	got := fw.StoreSource.Cells(plan.Queries())
	r.tr.end(sp)
	for i, q := range plan.Queries() {
		if want, _ := cold.Set.Get(q.Coord()); got[i] != want {
			r.fail("store source serves %+v for %+v, the sweep computed %+v", got[i], q.Coord(), want)
			break
		}
	}

	for _, e := range mustReadDir(storeDir) {
		r.post["store.log_bytes"] += fileSize(filepath.Join(storeDir, e))
	}
	sp = r.tr.begin("store.Open")
	st, err := store.Open(storeDir)
	r.tr.end(sp)
	if err != nil {
		r.fail("store.Open: %v", err)
		return
	}
	defer st.Close()
	var durs []int64
	for _, c := range cold.Set.Coords() {
		t := time.Now()
		cs, ok := st.Get(id, c)
		durs = append(durs, time.Since(t).Nanoseconds())
		if want, _ := cold.Set.Get(c); !ok || cs != want {
			r.fail("store holds %+v (found %v) for %+v, the sweep computed %+v", cs, ok, c, want)
			break
		}
	}
	r.post["store.get_p50_ns"] = percentile(durs, 0.50)
	r.post["store.get_p99_ns"] = percentile(durs, 0.99)
}

func sameCells(a, b *eval.ResultSet) bool {
	if a.Len() != b.Len() {
		return false
	}
	for _, c := range a.Coords() {
		x, _ := a.Get(c)
		y, ok := b.Get(c)
		if !ok || x != y {
			return false
		}
	}
	return true
}

func fileSize(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

func mustReadDir(dir string) []string {
	es, _ := os.ReadDir(dir)
	var out []string
	for _, e := range es {
		out = append(out, e.Name())
	}
	return out
}

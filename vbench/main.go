// Command vbench is the repository's end-to-end benchmark. Each run of a
// workload executes in a fresh process, so the program's process-wide
// caches start cold exactly as they do for a user's vgen-eval run; the
// benchmark repeats fresh runs for the requested time, checks every
// run's rendered output against pinned digests, and reports each metric
// as the median over the runs, with times scaled to a reference host
// speed by interleaved probe processes (probe.go). With --trace 1 it
// instead makes traced serial runs, each paired with an untraced serial
// run, and reports the per-layer metrics.
//
// Usage, from the repository root:
//
//	bash vbench/run.sh --workload paper-sweep|replay-verdict|distributed-store \
//	    --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed, and metrics; the line before it stamps the
// environment the numbers were measured in.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 2 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2]))
	}
	if len(os.Args) > 1 && os.Args[1] == "probe" {
		os.Exit(probeMain())
	}
	if len(os.Args) > 1 && os.Args[1] == "pin" {
		os.Exit(pinMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, nil))
}

// width is the load of every end-to-end run: evaluation workers times
// coord slots, and remote requests in flight, stay at most this. The
// traced runs are serial.
const width = 2

// runLimit bounds one benchmark invocation, set-up included.
const runLimit = 170 * time.Second

// maxSetupProcs and maxProbes cap the set-up and probe processes made
// after each measured run.
const (
	maxSetupProcs = 4
	maxProbes     = 6
)

var workloadNames = []string{"paper-sweep", "replay-verdict", "distributed-store"}

// endToEnd names the end-to-end metrics with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"samples_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// hooks let the self-tests corrupt a run on purpose.
type hooks struct {
	pins      func(*sizePins)        // edits the pins before the run
	afterPrep func(map[int64]string) // edits the prepared recordings
	report    func(check string)     // sees every failed check
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

// stamp records what the numbers were measured on, so results are
// ordered by commit and compared only at equal width.
type stamp struct {
	Commit     string  `json:"commit"`
	Source     string  `json:"source_sha256"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GCPercent  int     `json:"gc_percent"`
	Width      int     `json:"width"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seeds      []int64 `json:"family_seeds"`
	Size       string  `json:"size"`
	Traced     bool    `json:"traced"`
	Runs       int     `json:"runs"`
	// Raw holds the end-to-end medians before they were scaled to the
	// reference host speed, and the probe medians they were scaled by.
	Raw map[string]float64 `json:"raw,omitempty"`
}

func workRoot() string {
	dir := filepath.Join(".bench_build", "vbench-work")
	os.MkdirAll(dir, 0o755) // a failure surfaces at the first file made in it
	return dir
}

func benchMain(args []string, stdout io.Writer, hk *hooks) int {
	fl := flag.NewFlagSet("vbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 10, "how long to measure")
	traceFlag := fl.Int("trace", 0, "1 makes traced runs and reports per-layer metrics")
	sizeName := fl.String("size", "paper", "input size: paper, or tiny for the self-tests")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == *workload
	}
	sz, sizeOK := sizes[*sizeName]
	if !known || !sizeOK || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "vbench: need --workload (%s), --trace 0|1, and --size paper|tiny\n", strings.Join(workloadNames, ", "))
		return 2
	}
	if runtime.NumCPU() < width {
		fmt.Fprintf(os.Stderr, "vbench: the benchmark runs at width %d; this machine has %d CPU(s)\n", width, runtime.NumCPU())
		return 2
	}
	begun := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), begun.Add(runLimit))
	defer cancel()

	pf, err := loadPins()
	if err != nil || pf[sz.name] == nil {
		fmt.Fprintf(os.Stderr, "vbench: no pins for size %s: %v\n", sz.name, err)
		return 2
	}
	sp := pf[sz.name]
	if hk != nil && hk.pins != nil {
		hk.pins(sp)
	}
	seeds := sp.resolve(*workload, *seed)
	work, err := os.MkdirTemp(workRoot(), *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		return 2
	}
	defer os.RemoveAll(work)

	var checks []string
	expect := expectation{Samples: sp.Samples, Cells: sp.Cells, Shards: sp.Shards, Seeds: map[int64]seedPin{}, Family: map[int64]string{}}
	for _, s := range seeds {
		expect.Seeds[s] = sp.Seeds[s]
	}
	st := stamp{
		Commit: commit(), Source: sourceDigest(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		Width: width, Workload: *workload, Seed: *seed, Seeds: seeds, Size: sz.name, Traced: *traceFlag == 1,
	}
	recs := map[int64]string{}
	if *workload != "paper-sweep" {
		for _, s := range seeds {
			pin := sp.Seeds[s]
			rec, err := cachedRecord(s, sz, st.Source, pin, filepath.Join(work, fmt.Sprintf("rec-%d.jsonl", s)))
			if err != nil {
				checks = append(checks, fmt.Sprintf("recording seed %d: %v", s, err))
				continue
			}
			if rec.SHA256 != pin.RecordingSHA256 || rec.Samples != pin.RecordedSamples {
				checks = append(checks, fmt.Sprintf("recording at seed %d: %d samples, sha256 %s; pinned %d, %s",
					s, rec.Samples, rec.SHA256, pin.RecordedSamples, pin.RecordingSHA256))
			}
			if rec.Cells != pin.CellsSHA256 {
				checks = append(checks, fmt.Sprintf("family cell artifacts at seed %d: %s, pinned %s", s, rec.Cells, pin.CellsSHA256))
			}
			expect.Family[s] = rec.Cells
			recs[s] = rec.path
		}
		if hk != nil && hk.afterPrep != nil {
			hk.afterPrep(recs)
		}
	}

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		return 2
	}
	traceDir := filepath.Join(".bench_build", "vbench-traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		return 2
	}
	spec := childSpec{Workload: *workload, Size: sz.name, Seeds: seeds, Recordings: recs, Expect: expect}
	cellsPerRun := sp.Cells * len(seeds)
	if *workload == "distributed-store" {
		cellsPerRun = 2 * sp.Cells // the cold sweep and the warm re-run
	}

	if st.Traced {
		st.Width = 1
	}
	attempted, failed := 0, 0
	var runs, traced []childResult
	var walls, setups []float64
	var probes []probeReport
	// fold counts one process's failed checks. A run that failed any
	// check, or that could not report, counts every cell it attempted as
	// failed. Set-up and probe processes attempt no cells, but one that
	// fails counts as a failed run.
	fold := func(bad []string, run bool) bool {
		bad = append(append([]string(nil), checks...), bad...)
		if run || len(bad) > 0 {
			attempted += cellsPerRun
		}
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "vbench: check failed:", b)
			if hk != nil && hk.report != nil {
				hk.report(b)
			}
		}
		if len(bad) > 0 {
			failed += cellsPerRun
			return false
		}
		return true
	}
	account := func(res childResult, err error, w int, setupOnly bool) bool {
		var bad []string
		if err != nil {
			bad = append(bad, err.Error())
		} else {
			bad = append(bad, res.Checks...)
			if res.GOMAXPROCS < w {
				bad = append(bad, fmt.Sprintf("run had GOMAXPROCS=%d below width %d", res.GOMAXPROCS, w))
			}
			if res.GCPercent != 100 {
				bad = append(bad, fmt.Sprintf("run had GC percent %d; it must stay at the default 100", res.GCPercent))
			}
			st.GOMAXPROCS, st.GCPercent = res.GOMAXPROCS, res.GCPercent
		}
		return fold(bad, !setupOnly)
	}

	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || time.Since(start) < time.Duration(*seconds*float64(time.Second)); n++ {
		if n > 0 && time.Now().Add(last+last/4).After(begun.Add(runLimit)) {
			break // one more run would not finish inside the run limit
		}
		t := time.Now()
		runDir := filepath.Join(work, fmt.Sprintf("run-%d", n))
		spec.Work = runDir
		if st.Traced {
			spec.Width, spec.Traced = 1, true
			spec.TraceOut = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
			tr, _, err := runChild(ctx, exe, spec)
			okTraced := account(tr, err, 1, false)
			spec.Traced, spec.TraceOut = false, ""
			spec.Work = runDir + "-untraced"
			un, _, err := runChild(ctx, exe, spec)
			if account(un, err, 1, false) && okTraced {
				traced = append(traced, tr)
				runs = append(runs, un)
			}
		} else {
			spec.Width = width
			res, wall, err := runChild(ctx, exe, spec)
			if account(res, err, width, false) {
				runs = append(runs, res)
				walls = append(walls, wall)
				setups = append(setups, res.SetupS)
				if spec.WarmStore == "" && *workload == "distributed-store" {
					// The set-up processes open copies of the store this run left.
					spec.WarmStore = filepath.Join(work, "warm-store")
					if err := os.Rename(filepath.Join(runDir, "store"), spec.WarmStore); err != nil {
						fold([]string{"keeping the warm store: " + err.Error()}, false)
						spec.WarmStore = ""
					}
				}
			}
			// Set-up processes after each run add set-up samples, until they
			// have taken a fifth of the run's time.
			runTime, spent, before := time.Since(t), time.Duration(0), len(setups)
			for k := 0; k < maxSetupProcs && spent < runTime/5 && (spec.WarmStore != "" || *workload != "distributed-store"); k++ {
				s0 := time.Now()
				sspec := spec
				sspec.SetupOnly, sspec.Work = true, fmt.Sprintf("%s-setup-%d", runDir, k)
				res, _, err := runChild(ctx, exe, sspec)
				if account(res, err, width, true) {
					setups = append(setups, res.SetupS)
				}
				os.RemoveAll(sspec.Work)
				spent += time.Since(s0)
			}
			// Then probe processes, until they have taken a sixth of it.
			var probeWalls []float64
			for spent = 0; len(probeWalls) < maxProbes && spent < runTime/6; {
				s0 := time.Now()
				pr, err := runProbe(ctx, exe)
				spent += time.Since(s0)
				if err != nil {
					fold([]string{"probe: " + err.Error()}, false)
					break
				}
				probes = append(probes, pr)
				probeWalls = append(probeWalls, pr.WallS)
			}
			fmt.Fprintf(os.Stderr, "vbench: %s run %d: wall %.3fs setup %.3fs cpu %.3fs rss %.1fMiB; set-up processes %.3f; probes %.3f\n",
				*workload, n, wall, res.SetupS, res.CPUS, float64(res.MaxRSSKiB)/1024, setups[before:], probeWalls)
		}
		os.RemoveAll(runDir)
		os.RemoveAll(runDir + "-untraced")
		last = time.Since(t)
	}
	st.Runs = len(runs)

	out := result{Correct: failed == 0 && len(runs) > 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if st.Traced {
		out.Metrics = layerReport(traced, runs, attempted, failed)
	} else if len(runs) > 0 && len(probes) > 0 {
		var cpu, tput, rss, pw, pc []float64
		for i, r := range runs {
			cpu = append(cpu, r.CPUS)
			tput = append(tput, float64(r.Samples)/(walls[i]-r.SetupS))
			rss = append(rss, float64(r.MaxRSSKiB)/1024)
		}
		for _, p := range probes {
			pw = append(pw, p.WallS)
			pc = append(pc, p.CPUS)
		}
		st.Raw = map[string]float64{
			"setup_s": median(setups), "wall_s": median(walls), "cpu_s": median(cpu),
			"samples_per_s": median(tput), "peak_rss_mb": median(rss),
			"probe_wall_s": median(pw), "probe_cpu_s": median(pc),
		}
		// Wall-clock metrics scale by the probe's wall time and CPU time by
		// its CPU time: time the hypervisor takes away lengthens the first
		// only, a busy sibling core or shared cache both.
		wallScale, cpuScale := probeRefWallS/median(pw), probeRefCPUS/median(pc)
		vals := map[string]float64{
			"setup_s": median(setups) * wallScale, "wall_s": median(walls) * wallScale,
			"cpu_s": median(cpu) * cpuScale, "samples_per_s": median(tput) / wallScale,
			"peak_rss_mb": median(rss),
		}
		for _, m := range endToEnd {
			out.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	}
	sj, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "%s\n", sj)
	rj, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", rj)
	if !out.Correct {
		return 1
	}
	return 0
}

// layerReport builds the per-layer metrics: medians over the traced runs,
// the runtime counters of the untraced serial runs, and the tracing
// overhead as the difference between the two.
func layerReport(traced, untraced []childResult, attempted, failed int) map[string]metric {
	vals := map[string][]float64{}
	for _, tr := range traced {
		for k, v := range tr.Layers {
			vals[k] = append(vals[k], v)
		}
	}
	for i, un := range untraced {
		for k, v := range un.Runtime {
			vals[k] = append(vals[k], v)
		}
		vals["trace.untraced_run_s"] = append(vals["trace.untraced_run_s"], un.RunS)
		if i < len(traced) {
			d := traced[i].RunS - un.RunS
			vals["trace.overhead_s"] = append(vals["trace.overhead_s"], d)
			vals["trace.overhead_frac"] = append(vals["trace.overhead_frac"], d/un.RunS)
		}
	}
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	vals["failed_frac"] = []float64{frac}
	out := map[string]metric{}
	for _, m := range layerUnits {
		out[m.name] = metric{median(vals[m.name]), m.unit}
	}
	return out
}

// runChild runs one workload in a fresh process and returns its report
// and its wall time, from just before the process starts to the moment
// it had verified its rendered output.
func runChild(ctx context.Context, exe string, spec childSpec) (childResult, float64, error) {
	var res childResult
	if err := os.MkdirAll(spec.Work, 0o755); err != nil {
		return res, 0, err
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return res, 0, err
	}
	specPath := filepath.Join(spec.Work, "spec.json")
	if err := os.WriteFile(specPath, data, 0o644); err != nil {
		return res, 0, err
	}
	cmd := exec.CommandContext(ctx, exe, "child", specPath)
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return res, 0, fmt.Errorf("run process: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, 0, fmt.Errorf("run process report: %w", err)
	}
	return res, float64(res.VerifiedUnixNS-t0.UnixNano()) / 1e9, nil
}

// childEnv is the environment of a run process: the caller's, minus the
// runtime knobs, so runs see the defaults users run with.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch strings.SplitN(kv, "=", 2)[0] {
		case "GOGC", "GOMAXPROCS", "GOMEMLIMIT", "GODEBUG":
			continue
		}
		env = append(env, kv)
	}
	return env
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// commit is `git rev-parse HEAD`, or "unknown" outside a git checkout;
// the search for a repository stops at the checkout root.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every file of the checkout outside hidden
// directories, identifying the code measured where there is no commit.
func sourceDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}

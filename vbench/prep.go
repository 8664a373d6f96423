package main

// Untimed preparation: the family recordings the replay-verdict and
// distributed-store workloads serve, and the generator of pins.json.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/model"
	"repro/internal/problems"
	"repro/internal/vlog"
)

// recording is one prepared family recording.
type recording struct {
	path    string
	SHA256  string `json:"sha256"`  // of the file, whose lines are sorted
	Samples int    `json:"samples"` // distinct recorded coordinates
	Cells   string `json:"cells"`   // cell-artifact digest of the family sweep recorded
}

// record sweeps the family backend at seed over the cell plan through
// gen.NewRecorder and writes the recording to path. The recorder writes
// lines in worker completion order, so the lines are sorted before
// writing: the file, and its digest, depend only on the seed.
func record(seed int64, sz size, width int, path string) (recording, error) {
	b, err := gen.New("family", gen.Options{Family: model.Config{Seed: seed, CorpusFiles: sz.corpusFiles}})
	if err != nil {
		return recording{}, err
	}
	var buf bytes.Buffer
	rec := gen.NewRecorder(b, &buf)
	runner := eval.NewRunner(rec, seed)
	runner.Workers = width
	h := &harness.Harness{Runner: runner, Opts: sz.sweep, Seed: seed}
	plan, err := h.PlanFor(harness.CellExperiments())
	if err != nil {
		return recording{}, err
	}
	rs, err := runner.RunPlan(plan)
	if err != nil {
		return recording{}, err
	}
	if f := runner.Failures(); len(f) > 0 {
		return recording{}, fmt.Errorf("family sweep at seed %d left %d cell(s) unserved", seed, len(f))
	}
	if err := rec.Err(); err != nil {
		return recording{}, err
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	sort.Strings(lines)
	data := []byte(strings.Join(lines, ""))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return recording{}, err
	}
	_, cells := render(nil, harness.FromResults(rs, sz.sweep), false)
	return recording{
		path: path, SHA256: fileDigest(data),
		Samples: len(lines) - 1, // the split leaves one empty tail
		Cells:   digest(cells),
	}, nil
}

// cachedRecord is record with a cache. The recordings one source tree
// makes are kept under .bench_build, so a later invocation in the same
// checkout copies them to path instead of sweeping again. Only a
// recording that matched its pin when it was made is kept, and a kept one
// is used only while its file still has the digest it was made with.
func cachedRecord(seed int64, sz size, source string, pin seedPin, path string) (recording, error) {
	dir := filepath.Join(".bench_build", "vbench-recordings", sz.name+"-"+source[:16])
	data := filepath.Join(dir, fmt.Sprintf("rec-%d.jsonl", seed))
	meta := data + ".meta"
	var kept recording
	if m, err := os.ReadFile(meta); err == nil {
		if f, err := os.ReadFile(data); err == nil && json.Unmarshal(m, &kept) == nil && fileDigest(f) == kept.SHA256 {
			if err := os.WriteFile(path, f, 0o644); err != nil {
				return recording{}, err
			}
			kept.path = path
			return kept, nil
		}
	}
	rec, err := record(seed, sz, width, path)
	if err != nil || rec.SHA256 != pin.RecordingSHA256 || rec.Samples != pin.RecordedSamples || rec.Cells != pin.CellsSHA256 {
		return rec, err
	}
	// A failure to keep the recording only costs the next invocation a sweep.
	if f, err := os.ReadFile(path); err == nil && os.MkdirAll(dir, 0o755) == nil && os.WriteFile(data, f, 0o644) == nil {
		m, _ := json.Marshal(rec)
		os.WriteFile(meta, m, 0o644)
	}
	return rec, nil
}

func fileDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// candidateStats counts a recording's distinct (problem, level,
// completion) triples and those that fail vlog.Parse after truncation.
func candidateStats(path string) (distinct, parseFail int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	seen := map[candKey]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 8*1024*1024)
	for sc.Scan() {
		var rec gen.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return 0, 0, err
		}
		k := candKey{rec.Problem, problems.Level(rec.Level), rec.Completion}
		if seen[k] {
			continue
		}
		seen[k] = true
		p := problems.ByNumber(rec.Problem)
		if _, err := vlog.Parse(p.CompleteWith(k.Level, eval.Truncate(k.Completion))); err != nil {
			parseFail++
		}
	}
	return len(seen), parseFail, sc.Err()
}

// pinMain regenerates pins.json on stdout, both sizes, every pinned
// seed: `bash vbench/run.sh pin > vbench/pins.json`.
func pinMain(args []string, stdout io.Writer) int {
	if len(args) > 0 {
		fmt.Fprintln(os.Stderr, "vbench pin: takes no arguments")
		return 2
	}
	pf := pinFile{}
	for _, name := range []string{"paper", "tiny"} {
		sp, err := pinSize(sizes[name])
		if err != nil {
			fmt.Fprintln(os.Stderr, "vbench pin:", err)
			return 1
		}
		pf[name] = sp
	}
	out, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "vbench pin:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}

// pinSize pins every seed of pinnedSeeds at one size.
func pinSize(sz size) (*sizePins, error) {
	dir, err := os.MkdirTemp(workRoot(), "pin-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sp := &sizePins{Shards: shards, Seeds: map[int64]seedPin{}}
	for _, seed := range pinnedSeeds() {
		rec, err := record(seed, sz, width, filepath.Join(dir, fmt.Sprintf("rec-%d.jsonl", seed)))
		if err != nil {
			return nil, err
		}
		distinct, parseFail, err := candidateStats(rec.path)
		if err != nil {
			return nil, err
		}
		fw, err := core.New(core.Config{Seed: seed, CorpusFiles: sz.corpusFiles, Sweep: sz.sweep, Workers: width})
		if err != nil {
			return nil, err
		}
		out, cells := render(nil, fw.Harness, true)
		if digest(cells) != rec.Cells {
			return nil, fmt.Errorf("seed %d: the cell artifacts of the live sweep and of the recorded sweep differ", seed)
		}
		plan, err := fw.Harness.PlanFor(harness.CellExperiments())
		if err != nil {
			return nil, err
		}
		sp.Cells = plan.Len()
		sp.Samples = 0
		for _, q := range plan.Queries() {
			sp.Samples += q.N
		}
		fw.Close()
		sp.Seeds[seed] = seedPin{
			OutputSHA256: digest(out), CellsSHA256: rec.Cells,
			RecordingSHA256: rec.SHA256, RecordedSamples: rec.Samples,
			DistinctCandidates: distinct, ParseFail: parseFail,
		}
		fmt.Fprintf(os.Stderr, "pinned %s seed %d\n", sz.name, seed)
	}
	return sp, nil
}

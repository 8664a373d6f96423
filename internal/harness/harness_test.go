package harness

import (
	"strings"
	"testing"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/model"
)

// familyHarness builds a live harness over the family backend at seed 7
// and a 60-file corpus.
func familyHarness(t *testing.T, sweep eval.SweepOptions) *Harness {
	t.Helper()
	b, err := gen.New("family", gen.Options{Family: model.Config{Seed: 7, CorpusFiles: 60}})
	if err != nil {
		t.Fatal(err)
	}
	return &Harness{Runner: eval.NewRunner(b, 7), Opts: sweep, Seed: 7}
}

// quick sweep settings keep the full-table tests fast
func quickHarness(t *testing.T) *Harness {
	t.Helper()
	return familyHarness(t, eval.SweepOptions{N: 4, Temperatures: []float64{0.1}})
}

func TestTableIStatic(t *testing.T) {
	h := quickHarness(t)
	out := h.TableI()
	for _, want := range []string{"MegatronLM-355M", "code-davinci-002", "CodeGen-16B", "NA", "4096"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIStatic(t *testing.T) {
	h := quickHarness(t)
	out := h.TableII()
	if !strings.Contains(out, "ABRO FSM") || !strings.Contains(out, "A simple wire") {
		t.Errorf("Table II incomplete:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got < 18 {
		t.Errorf("Table II too short: %d lines", got)
	}
}

func TestTableIIIRendersAllRows(t *testing.T) {
	h := quickHarness(t)
	out := h.TableIII()
	if strings.Count(out, "PT") < 6 || strings.Count(out, "FT") < 5 {
		t.Errorf("Table III rows missing:\n%s", out)
	}
	if !strings.Contains(out, "|") {
		t.Error("Table III should show measured|paper pairs")
	}
}

func TestTableIVRendersAllCells(t *testing.T) {
	h := quickHarness(t)
	out := h.TableIV()
	if !strings.Contains(out, "Inf.(s)") {
		t.Error("Table IV missing inference time column")
	}
	rows := strings.Split(strings.TrimSpace(out), "\n")
	// title + header + 11 variant rows
	if len(rows) != 13 {
		t.Errorf("Table IV rows = %d:\n%s", len(rows), out)
	}
}

func TestFigure6Output(t *testing.T) {
	h := quickHarness(t)
	out := h.Figure6()
	if !strings.Contains(out, "vs temperature") || !strings.Contains(out, "vs completions per prompt") {
		t.Errorf("Figure 6 missing panels:\n%s", out)
	}
	if !strings.Contains(out, "J1-Large-7B,FT") {
		t.Error("Figure 6 missing J1 series")
	}
	if !strings.Contains(out, "skipped") {
		t.Error("Figure 6 should mark J1's skipped n=25")
	}
}

func TestFigure7Output(t *testing.T) {
	h := quickHarness(t)
	out := h.Figure7()
	if !strings.Contains(out, "vs description level") || !strings.Contains(out, "vs difficulty") {
		t.Errorf("Figure 7 missing panels:\n%s", out)
	}
}

func TestHeadlineReport(t *testing.T) {
	h := quickHarness(t)
	out := h.HeadlineReport()
	for _, want := range []string{"0.646", "0.419", "0.354", "fine-tuned"} {
		if !strings.Contains(out, want) {
			t.Errorf("headline missing %q:\n%s", want, out)
		}
	}
}

func TestCorpusStats(t *testing.T) {
	h := quickHarness(t)
	out := h.CorpusStats()
	for _, want := range []string{"raw files", "duplicate", "textbook windows", "50K files"} {
		if !strings.Contains(out, want) {
			t.Errorf("corpus stats missing %q:\n%s", want, out)
		}
	}
}

func TestFailureGallery(t *testing.T) {
	h := quickHarness(t)
	out := h.FailureGallery()
	if strings.Count(out, "-- Problem") < 15 {
		t.Errorf("gallery too sparse:\n%s", out)
	}
	if !strings.Contains(out, "operator") {
		t.Error("gallery missing operator names")
	}
}

func TestExperimentIndex(t *testing.T) {
	idx := ExperimentIndex()
	if len(idx) != 13 {
		t.Fatalf("index size = %d", len(idx))
	}
}

func TestProblemBreakdownReproducesSectionVI(t *testing.T) {
	h := quickHarness(t)
	out := h.ProblemBreakdown()
	lines := strings.Split(out, "\n")
	findCount := func(slug string) (passed string) {
		for _, l := range lines {
			if strings.Contains(l, slug) {
				f := strings.Fields(l)
				return f[len(f)-3] // Passed column
			}
		}
		t.Fatalf("slug %s missing:\n%s", slug, out)
		return ""
	}
	if got := findCount("lfsr"); got != "0" {
		t.Errorf("problem 7 passed = %s, want 0", got)
	}
	if got := findCount("truth-table"); got != "0" {
		t.Errorf("problem 12 passed = %s, want 0", got)
	}
}

func TestPassAtKTableShape(t *testing.T) {
	h := quickHarness(t)
	out := h.PassAtKTable()
	if !strings.Contains(out, "pass@1") || !strings.Contains(out, "pass@10") {
		t.Fatalf("pass@k table malformed:\n%s", out)
	}
	// 6 figure variants x 3 difficulties + header/title
	if got := strings.Count(strings.TrimSpace(out), "\n"); got < 19 {
		t.Fatalf("pass@k rows = %d:\n%s", got, out)
	}
}

func TestDeterministicTables(t *testing.T) {
	a := quickHarness(t).TableIII()
	b := quickHarness(t).TableIII()
	if a != b {
		t.Fatal("Table III not deterministic")
	}
}

// TestMergedShardsRenderIdentical drives the whole distributed path
// in-process: enumerate the artifact plan off the renderers, execute it
// as three shards on independent harnesses (separate processes share no
// caches), merge, and render from the merged stats alone. Output must be
// byte-identical to the live harness at every five-temperature artifact.
func TestMergedShardsRenderIdentical(t *testing.T) {
	sweep := eval.SweepOptions{N: 3, Temperatures: []float64{0.1, 0.3, 0.5, 0.7, 1.0}}
	live := familyHarness(t, sweep)
	experiments := []string{"table3", "fig6", "passk"}
	plan, err := live.PlanFor(experiments)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Len() == 0 {
		t.Fatal("empty plan")
	}

	const shards = 3
	merged := eval.NewResultSet()
	for i := 0; i < shards; i++ {
		worker := familyHarness(t, sweep)
		sub, err := plan.Shard(i, shards)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := worker.Runner.RunPlan(sub)
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(rs); err != nil {
			t.Fatal(err)
		}
	}

	offline := FromResults(merged, sweep)
	for _, check := range []struct {
		name string
		f    func(*Harness) string
	}{
		{"table3", (*Harness).TableIII},
		{"fig6", (*Harness).Figure6},
		{"passk", (*Harness).PassAtKTable},
	} {
		want := check.f(live)
		got := check.f(offline)
		if got != want {
			t.Errorf("%s differs between live and merged-shard rendering:\nlive:\n%s\nmerged:\n%s", check.name, want, got)
		}
	}
	if missing := merged.Missing(); len(missing) > 0 {
		t.Fatalf("merged results left %d cells unserved: %+v", len(missing), missing[0])
	}
}

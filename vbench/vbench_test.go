package main

// Self-tests of the benchmark at the tiny input size. Run processes are
// this test binary re-executed with the "child" argument.
//
//	cd vbench && go test ./...

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == "child" {
		os.Exit(childMain(os.Args[2]))
	}
	if len(os.Args) > 1 && os.Args[1] == "probe" {
		os.Exit(probeMain())
	}
	// Run from the repository root, as the benchmark is run.
	if err := os.Chdir(".."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

type definition struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readDefinition(t *testing.T) definition {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d definition
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// bench runs one tiny benchmark invocation and decodes its result line.
func bench(t *testing.T, hk *hooks, args ...string) (result, int) {
	t.Helper()
	var out bytes.Buffer
	code := benchMain(append([]string{"--size", "tiny", "--seconds", "0"}, args...), &out, hk)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
	}
	if len(lines) < 2 || !strings.Contains(lines[len(lines)-2], `"commit"`) {
		t.Errorf("no environment stamp before the result line:\n%s", out.String())
	}
	return res, code
}

// TestSmokeEveryMetric runs every workload once, untraced and traced, and
// checks that each emits exactly the metrics BENCHMARK.json names, with
// their units, and passes its checks.
func TestSmokeEveryMetric(t *testing.T) {
	def := readDefinition(t)
	if len(def.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(def.Workloads), len(workloadNames))
	}
	for i, w := range def.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, w.Name, workloadNames[i])
		}
		for trace, want := range [][]struct{ Name, Unit string }{def.EndToEnd, def.PerLayer} {
			res, code := bench(t, nil, "--workload", w.Name, "--seed", "1", "--trace", fmt.Sprint(trace))
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace %d: exit %d, correct %v, %d of %d failed", w.Name, trace, code, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %d: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %d: metric %s in %q, BENCHMARK.json says %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == 0 && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v", w.Name, m.Name, got.Value)
				}
			}
			if trace == 1 && res.Metrics["eval.verdict_mismatch"].Value != 0 {
				t.Errorf("%s: %v verdict mismatches", w.Name, res.Metrics["eval.verdict_mismatch"].Value)
			}
		}
	}
}

// TestPerturbedDigestFails: a run whose pinned output digest is wrong
// must fail, with every cell it attempted counted as failed.
func TestPerturbedDigestFails(t *testing.T) {
	hk := &hooks{pins: func(sp *sizePins) {
		pin := sp.Seeds[1]
		pin.CellsSHA256 = strings.Repeat("0", 64)
		sp.Seeds[1] = pin
	}}
	res, code := bench(t, hk, "--workload", "paper-sweep", "--seed", "1", "--trace", "0")
	if code == 0 || res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Fatalf("perturbed digest: exit %d, correct %v, %d of %d failed", code, res.Correct, res.Failed, res.Attempted)
	}
}

// TestTruncatedRecordingFails: a replay recording cut short after its
// digest was checked still serves a sweep, but renders different tables;
// the output digest check must catch it and failed_frac must rise.
func TestTruncatedRecordingFails(t *testing.T) {
	var checks []string
	hk := &hooks{
		afterPrep: func(recs map[int64]string) {
			data, err := os.ReadFile(recs[1])
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(string(data), "\n")
			if err := os.WriteFile(recs[1], []byte(strings.Join(lines[:len(lines)/2], "")), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		report: func(check string) { checks = append(checks, check) },
	}
	res, code := bench(t, hk, "--workload", "replay-verdict", "--seed", "1", "--trace", "1")
	if code == 0 || res.Correct || res.Failed != res.Attempted {
		t.Fatalf("truncated recording: exit %d, correct %v, %d of %d failed", code, res.Correct, res.Failed, res.Attempted)
	}
	if f := res.Metrics["failed_frac"].Value; f != 1 {
		t.Errorf("failed_frac %v, want 1", f)
	}
	caught := false
	for _, c := range checks {
		caught = caught || strings.HasPrefix(c, "cells digest at seed 1 ")
	}
	if !caught {
		t.Errorf("no output digest check failed for seed 1; failed checks:\n%s", strings.Join(checks, "\n"))
	}
}

package main

// Pinned inputs and outputs. Every run checks the program's rendered
// output against the sha256 pinned here for its seed, and its traffic
// descriptors against the pinned counts, so a run on the parent commit
// and a run on a change always see identical inputs and no workload can
// silently shrink. `vbench pin` regenerates the file; a change that
// alters rendered output on purpose must re-pin and say why.

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"repro/internal/eval"
)

//go:embed pins.json
var pinsJSON []byte

// seedPin pins one family seed's inputs and outputs.
type seedPin struct {
	// OutputSHA256 is the digest of all renderers' output (paper-sweep).
	OutputSHA256 string `json:"output_sha256"`
	// CellsSHA256 is the digest of the cell-based renderers' output. The
	// family sweep, the replay of its recording, and the remote + coord +
	// store sweep of that recording must all render exactly this.
	CellsSHA256 string `json:"cells_sha256"`
	// RecordingSHA256 is the digest of the family recording with its
	// lines sorted; RecordedSamples counts its distinct coordinates.
	RecordingSHA256 string `json:"recording_sha256"`
	RecordedSamples int    `json:"recorded_samples"`
	// DistinctCandidates counts the distinct (problem, level, completion)
	// triples of the cell plan's sweep; ParseFail counts those that fail
	// vlog.Parse after truncation.
	DistinctCandidates int `json:"distinct_candidates"`
	ParseFail          int `json:"parse_fail"`
}

// sizePins pins one input size.
type sizePins struct {
	// Samples and Cells size the cell plan of the seven cell-based
	// renderers; Shards is the distributed-store partition count.
	Samples int               `json:"samples"`
	Cells   int               `json:"cells"`
	Shards  int               `json:"shards"`
	Seeds   map[int64]seedPin `json:"seeds"`
}

// shards is the distributed-store partition count.
const shards = 4

// pinnedSeeds lists the family seeds pins.json pins: the rotation 1–10,
// three more so that a replay-verdict run at seed 10 has its four, and
// the held-out seeds 101–104 (workload seed 101). No run made while the
// benchmark was tuned used the held-out seeds, so a later claim can be
// re-checked on inputs it was not tuned on.
func pinnedSeeds() []int64 {
	var out []int64
	for s := int64(1); s <= 13; s++ {
		out = append(out, s)
	}
	return append(out, 101, 102, 103, 104)
}

// rotation is the list of workload seeds a run maps --seed onto when the
// seed itself is not pinned.
var rotation = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}

type pinFile map[string]*sizePins

// size is one input scale of the workloads.
type size struct {
	name        string
	sweep       eval.SweepOptions
	corpusFiles int // 0 = the family default
}

var sizes = map[string]size{
	// paper is the sweep `vgen-eval -experiment all` runs.
	"paper": {name: "paper", sweep: eval.SweepOptions{N: 10}},
	// tiny keeps the self-tests fast.
	"tiny": {name: "tiny", sweep: eval.SweepOptions{N: 2, Temperatures: []float64{0.1}}, corpusFiles: 60},
}

// replaySeeds is how many family recordings one replay-verdict run
// sweeps: workload seed s serves seeds s, s+1, ..., s+replaySeeds-1.
const replaySeeds = 4

func loadPins() (pinFile, error) {
	var pf pinFile
	if err := json.Unmarshal(pinsJSON, &pf); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return pf, nil
}

// familySeeds returns the family seeds workload runs at workload seed s.
func familySeeds(workload string, s int64) []int64 {
	if workload != "replay-verdict" {
		return []int64{s}
	}
	out := make([]int64, replaySeeds)
	for i := range out {
		out[i] = s + int64(i)
	}
	return out
}

// resolve maps the --seed argument to the family seeds a run uses. A seed
// whose inputs are all pinned is used as given; any other seed selects a
// rotation entry, so the same argument always yields the same inputs and
// every run is checked against pinned output.
func (sp *sizePins) resolve(workload string, seed int64) []int64 {
	all := func(s int64) bool {
		for _, f := range familySeeds(workload, s) {
			if _, ok := sp.Seeds[f]; !ok {
				return false
			}
		}
		return true
	}
	if all(seed) {
		return familySeeds(workload, seed)
	}
	n := int64(len(rotation))
	return familySeeds(workload, rotation[((seed%n)+n)%n])
}

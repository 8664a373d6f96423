package main

// The stage pass of the traced run: every distinct candidate the backend
// wrapper saw is replayed through the verdict pipeline one public stage
// at a time, each stage timed, and the composed verdict is cross-checked
// against the shared engine (eval.Evaluate), the fresh engine
// (eval.EvaluateUnshared), and the interpreted simulator, which is the
// independent reference.

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/eval"
	"repro/internal/problems"
	"repro/internal/sim"
	"repro/internal/vlog"
	"repro/internal/vlog/elab"
)

// stageStats is what the stage pass measures.
type stageStats struct {
	candidates                          int
	truncate, parse, compile, elaborate time.Duration
	simRun, interpRun                   time.Duration
	verdictShared, verdictFresh         time.Duration
	parseFail, compileFail, elabFail    int
	runs, limitFail, pass, mismatch     int
	parseFailed                         map[candKey]bool
	mismatches                          []string // first few, for the report
}

// stagePass replays cands (in a fixed order) through the pipeline.
func stagePass(cands map[candKey]bool) stageStats {
	keys := make([]candKey, 0, len(cands))
	for k := range cands {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Problem != b.Problem {
			return a.Problem < b.Problem
		}
		if a.Level != b.Level {
			return a.Level < b.Level
		}
		return a.Completion < b.Completion
	})
	st := stageStats{candidates: len(keys), parseFailed: map[candKey]bool{}}
	benches := map[int]*vlog.SourceFile{}
	for _, k := range keys {
		p := problems.ByNumber(k.Problem)
		tb, ok := benches[k.Problem]
		if !ok {
			tb, _ = vlog.Parse(p.Testbench) // nil on error: the verdict is then Compiles only
			benches[k.Problem] = tb
		}
		staged, interp := st.stages(p, k, tb)

		t := time.Now()
		shared := eval.Evaluate(p, k.Level, k.Completion)
		st.verdictShared += time.Since(t)
		t = time.Now()
		fresh := eval.EvaluateUnshared(p, k.Level, k.Completion)
		st.verdictFresh += time.Since(t)

		if staged != shared || staged != fresh || staged != interp {
			st.mismatch++
			if len(st.mismatches) < 4 {
				st.mismatches = append(st.mismatches, fmt.Sprintf("problem %d level %d: staged %+v shared %+v fresh %+v interpreted %+v",
					k.Problem, k.Level, staged, shared, fresh, interp))
			}
		}
		if staged.Passes {
			st.pass++
		}
	}
	return st
}

// stages composes one verdict from the public stage functions and
// returns it with the interpreted engine's verdict for the same source.
func (st *stageStats) stages(p *problems.Problem, k candKey, tb *vlog.SourceFile) (staged, interp eval.Outcome) {
	t := time.Now()
	body := eval.Truncate(k.Completion)
	st.truncate += time.Since(t)
	src := p.CompleteWith(k.Level, body)

	t = time.Now()
	f, err := vlog.Parse(src)
	st.parse += time.Since(t)
	if err != nil {
		st.parseFail++
		st.parseFailed[k] = true
		return eval.Outcome{}, eval.Outcome{}
	}
	t = time.Now()
	err = elab.CompileCheck(f)
	st.compile += time.Since(t)
	if err != nil {
		st.compileFail++
		return eval.Outcome{}, eval.Outcome{}
	}
	if tb == nil {
		return eval.Outcome{Compiles: true}, eval.Outcome{Compiles: true}
	}
	t = time.Now()
	d, err := elab.Elaborate(vlog.Compose(f, tb), "tb", elab.Options{})
	st.elaborate += time.Since(t)
	if err != nil {
		st.elabFail++
		return eval.Outcome{Compiles: true}, eval.Outcome{Compiles: true}
	}
	t = time.Now()
	res, err := sim.New(d, sim.Options{}).Run()
	st.simRun += time.Since(t)
	st.runs++
	staged = verdict(res, err)
	if errors.Is(err, sim.ErrTimeLimit) || errors.Is(err, sim.ErrStepLimit) || errors.Is(err, sim.ErrOutputLimit) {
		st.limitFail++
	}

	// The interpreted engine gets its own parse and elaboration, so it
	// shares no state with the compiled run it checks.
	f2, err := vlog.Parse(src)
	if err != nil {
		return staged, eval.Outcome{}
	}
	d2, err := elab.Elaborate(vlog.Compose(f2, tb), "tb", elab.Options{})
	if err != nil {
		return staged, eval.Outcome{Compiles: true}
	}
	t = time.Now()
	res2, err := sim.New(d2, sim.Options{Interpret: true}).Run()
	st.interpRun += time.Since(t)
	return staged, verdict(res2, err)
}

func verdict(res sim.Result, err error) eval.Outcome {
	if err != nil {
		return eval.Outcome{Compiles: true, Simulated: true}
	}
	return eval.Outcome{Compiles: true, Simulated: true, Passes: problems.PassVerdict(res.Output)}
}

package main

// The per-layer metrics of the traced run, derived from its spans, the
// backend wrappers, the program's own counters, and the stage pass.

import (
	"repro/internal/harness"
)

// layerUnits names every per-layer metric with its unit, in report order.
// BENCHMARK.json lists the same metrics; the self-tests hold the two equal.
var layerUnits = []struct{ name, unit string }{
	{"gen.new_backend_s", "s"},
	{"gen.complete_s", "s"},
	{"gen.completions", "count"},
	{"gen.complete_p50_us", "us"},
	{"gen.complete_p99_us", "us"},
	{"core.new_s", "s"},
	{"eval.cells_s", "s"},
	{"eval.cells_self_s", "s"},
	{"eval.cell_queries", "count"},
	{"eval.cells", "count"},
	{"eval.distinct_candidates", "count"},
	{"eval.dup_ratio", "ratio"},
	{"eval.memo_hits", "count"},
	{"eval.outcome_entries", "count"},
	{"eval.design_hits", "count"},
	{"eval.design_misses", "count"},
	{"eval.design_evictions", "count"},
	{"eval.truncate_s", "s"},
	{"eval.verdict_shared_s", "s"},
	{"eval.verdict_fresh_s", "s"},
	{"eval.verdict_mismatch", "count"},
	{"vlog.parse_s", "s"},
	{"vlog.parse_fail", "count"},
	{"vlog.parse_calls", "count"},
	{"elab.compile_check_s", "s"},
	{"elab.compile_fail", "count"},
	{"elab.elaborate_s", "s"},
	{"elab.elab_fail", "count"},
	{"sim.run_s", "s"},
	{"sim.runs", "count"},
	{"sim.limit_fail", "count"},
	{"sim.interp_run_s", "s"},
	{"sim.plan_hits", "count"},
	{"sim.plan_misses", "count"},
	{"sim.plan_evictions", "count"},
	{"problems.pass", "count"},
	{"harness.plan_s", "s"},
	{"harness.render_self_s", "s"},
	{"harness.render_s.table1", "s"},
	{"harness.render_s.table2", "s"},
	{"harness.render_s.table3", "s"},
	{"harness.render_s.table4", "s"},
	{"harness.render_s.fig6", "s"},
	{"harness.render_s.fig7", "s"},
	{"harness.render_s.headline", "s"},
	{"harness.render_s.ablation", "s"},
	{"harness.render_s.corpus", "s"},
	{"harness.render_s.gallery", "s"},
	{"harness.render_s.passk", "s"},
	{"harness.render_s.problems", "s"},
	{"harness.render_s.lint", "s"},
	{"store.open_s", "s"},
	{"store.cells_s", "s"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.persisted", "count"},
	{"store.log_bytes", "bytes"},
	{"store.get_p50_ns", "ns"},
	{"store.get_p99_ns", "ns"},
	{"wire.plan_bytes", "bytes"},
	{"wire.result_bytes", "bytes"},
	{"wire.decode_merge_s", "s"},
	{"remote.client_s", "s"},
	{"remote.server_s", "s"},
	{"remote.overhead_s", "s"},
	{"remote.batches", "count"},
	{"coord.run_s", "s"},
	{"coord.launches", "count"},
	{"coord.retries", "count"},
	{"coord.adopted", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"runtime.alloc_mb", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"trace.untraced_run_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_frac", "ratio"},
	{"failed_frac", "ratio"},
}

// layers fills the traced run's per-layer metrics. It runs after the
// timed section: the stage pass replays every distinct candidate.
func (r *run) layers() {
	t := r.tr
	L := map[string]float64{}
	var durs []int64
	completions, batches := 0, 0
	union := map[candKey]bool{}
	for _, b := range r.backends {
		durs = append(durs, b.durs...)
		completions += b.reqs
		batches += b.batch
		for k := range b.seen {
			union[k] = true
		}
	}
	L["gen.new_backend_s"] = t.total("gen.New")
	L["gen.complete_s"] = t.total("gen.Complete") + t.total("gen.CompleteBatch")
	L["gen.completions"] = float64(completions)
	L["gen.complete_p50_us"] = percentile(durs, 0.50) / 1e3
	L["gen.complete_p99_us"] = percentile(durs, 0.99) / 1e3
	L["core.new_s"] = t.total("core.New")

	st := stagePass(union)
	for _, m := range st.mismatches {
		r.fail("verdict cross-check: %s", m)
	}
	r.checkStageInputs(st)

	L["eval.cells_s"] = t.total("eval.cells")
	L["eval.cells_self_s"] = t.self("eval.cells")
	L["eval.cell_queries"] = float64(r.queries)
	L["eval.cells"] = float64(r.acc.cells)
	L["eval.distinct_candidates"] = float64(len(union))
	if completions > 0 {
		L["eval.dup_ratio"] = 1 - float64(len(union))/float64(completions)
	}
	L["eval.memo_hits"] = float64(r.acc.memoHits)
	L["eval.outcome_entries"] = float64(r.acc.outcomeEntries)
	L["eval.design_hits"] = float64(r.shared.DesignHits)
	L["eval.design_misses"] = float64(r.shared.DesignMisses)
	L["eval.design_evictions"] = float64(r.shared.DesignEvicted)
	L["eval.truncate_s"] = st.truncate.Seconds()
	L["eval.verdict_shared_s"] = st.verdictShared.Seconds()
	L["eval.verdict_fresh_s"] = st.verdictFresh.Seconds()
	L["eval.verdict_mismatch"] = float64(st.mismatch)

	L["vlog.parse_s"] = st.parse.Seconds()
	L["vlog.parse_fail"] = float64(st.parseFail)
	L["vlog.parse_calls"] = float64(r.parseCalls)
	L["elab.compile_check_s"] = st.compile.Seconds()
	L["elab.compile_fail"] = float64(st.compileFail)
	L["elab.elaborate_s"] = st.elaborate.Seconds()
	L["elab.elab_fail"] = float64(st.elabFail)
	L["sim.run_s"] = st.simRun.Seconds()
	L["sim.runs"] = float64(st.runs)
	L["sim.limit_fail"] = float64(st.limitFail)
	L["sim.interp_run_s"] = st.interpRun.Seconds()
	L["sim.plan_hits"] = float64(r.shared.Plans.Hits)
	L["sim.plan_misses"] = float64(r.shared.Plans.Misses)
	L["sim.plan_evictions"] = float64(r.shared.Plans.Evictions)
	L["problems.pass"] = float64(st.pass)

	L["harness.plan_s"] = t.total("harness.PlanFor")
	for _, rd := range harness.Renderers() {
		L["harness.render_s."+rd.Name] = t.total("harness.render." + rd.Name)
		L["harness.render_self_s"] += t.self("harness.render." + rd.Name)
	}

	L["store.open_s"] = t.total("store.Open")
	L["store.cells_s"] = t.total("store.Cells")
	L["store.hits"] = float64(r.acc.storeHits)
	L["store.misses"] = float64(r.acc.storeMisses)
	L["store.persisted"] = float64(r.acc.storePersisted)
	L["wire.decode_merge_s"] = t.total("wire.decode_merge")
	L["remote.client_s"] = t.total("gen.CompleteBatch")
	L["remote.server_s"] = t.total("remote.server.Complete") + t.total("remote.server.CompleteBatch")
	L["remote.overhead_s"] = L["remote.client_s"] - L["remote.server_s"]
	L["remote.batches"] = float64(batches)
	L["coord.run_s"] = t.total("coord.Run")
	L["coord.launches"] = float64(r.acc.launches)
	L["coord.retries"] = float64(r.acc.retries)
	L["coord.adopted"] = float64(r.acc.adopted)
	for k, v := range r.post {
		L[k] = v
	}
	r.res.Layers = L
}

// checkStageInputs holds each seed's distinct candidates and parse
// failures, as the traced wrapper and the stage pass saw them, to the pins.
func (r *run) checkStageInputs(st stageStats) {
	perSeed := map[int64]map[candKey]bool{}
	for _, b := range r.backends {
		if perSeed[b.seed] == nil {
			perSeed[b.seed] = map[candKey]bool{}
		}
		for k := range b.seen {
			perSeed[b.seed][k] = true
		}
	}
	for _, seed := range r.spec.Seeds {
		pin := r.spec.Expect.Seeds[seed]
		fails := 0
		for k := range perSeed[seed] {
			if st.parseFailed[k] {
				fails++
			}
		}
		if n := len(perSeed[seed]); n != pin.DistinctCandidates || fails != pin.ParseFail {
			r.fail("seed %d: traced sweep saw %d distinct candidates with %d parse failures, pinned %d with %d",
				seed, n, fails, pin.DistinctCandidates, pin.ParseFail)
		}
	}
}

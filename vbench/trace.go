package main

// Tracing for the per-layer run. Spans are recorded only by the
// benchmark's own code, around its calls into each layer's public
// functions; nothing inside the program is instrumented. The traced run
// is serial (width 1), so spans nest strictly and a span's self time —
// its duration minus the time its direct children cover — partitions
// the run's wall time.

import (
	"bufio"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/problems"
)

// span is one timed call into a layer. Parent is -1 for a root span.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so both runs execute the
// same code path apart from the clock reads.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
	open     []int // stack of open span IDs, innermost last
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span nested under the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Start: time.Since(t.t0).Nanoseconds()})
	t.open = append(t.open, id)
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = time.Since(t.t0).Nanoseconds()
	for i := len(t.open) - 1; i >= 0; i-- {
		if t.open[i] == id {
			t.open = append(t.open[:i], t.open[i+1:]...)
			break
		}
	}
	return time.Duration(s.End - s.Start)
}

// total sums the durations of the spans named name, in seconds.
func (t *tracer) total(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// self sums the self time of the spans named name, in seconds.
func (t *tracer) self(name string) float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start - child[s.ID]
		}
	}
	return float64(ns) / 1e9
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// candKey is one distinct candidate: the raw completion a backend produced
// for (problem, level).
type candKey struct {
	Problem    int
	Level      problems.Level
	Completion string
}

// tracedBackend is a pass-through gen.Backend that adds a span on every
// call, times it, and collects the distinct candidates it served.
type tracedBackend struct {
	inner gen.Backend
	tr    *tracer
	name  string // span name prefix, e.g. "gen."
	seed  int64  // the family seed of the sweep it serves

	mu    sync.Mutex
	durs  []int64 // per-call durations, ns
	reqs  int     // samples requested
	batch int     // CompleteBatch calls
	seen  map[candKey]bool
}

// tracedBatchBackend keeps gen.BatchBackend for inner backends that have
// it, so the engine takes the same batched path it takes untraced.
type tracedBatchBackend struct {
	*tracedBackend
	bb gen.BatchBackend
}

// wrapBackend wraps inner; the result implements gen.BatchBackend exactly
// when inner does, and Describe is unchanged.
func wrapBackend(inner gen.Backend, tr *tracer, name string) *tracedBackend {
	return &tracedBackend{inner: inner, tr: tr, name: name, seen: map[candKey]bool{}}
}

func (b *tracedBackend) backend() gen.Backend {
	if bb, ok := b.inner.(gen.BatchBackend); ok {
		return &tracedBatchBackend{tracedBackend: b, bb: bb}
	}
	return b
}

func (b *tracedBackend) Complete(key gen.Key, p *problems.Problem, level problems.Level, temperature float64, sampleIdx int, baseSeed int64) (gen.Sample, bool) {
	id := b.tr.begin(b.name + "Complete")
	s, ok := b.inner.Complete(key, p, level, temperature, sampleIdx, baseSeed)
	d := b.tr.end(id)
	b.mu.Lock()
	b.durs = append(b.durs, int64(d))
	b.reqs++
	if ok {
		b.seen[candKey{p.Number, level, s.Completion}] = true
	}
	b.mu.Unlock()
	return s, ok
}

func (b *tracedBackend) Variants() []gen.Key { return b.inner.Variants() }
func (b *tracedBackend) Describe() string    { return b.inner.Describe() }

func (b *tracedBatchBackend) CompleteBatch(ctx context.Context, reqs []gen.Request) []gen.BatchResult {
	id := b.tr.begin(b.name + "CompleteBatch")
	out := b.bb.CompleteBatch(ctx, reqs)
	d := b.tr.end(id)
	b.mu.Lock()
	b.durs = append(b.durs, int64(d))
	b.reqs += len(reqs)
	b.batch++
	for i, r := range out {
		if i < len(reqs) && r.OK && r.Err == nil {
			b.seen[candKey{reqs[i].Problem.Number, reqs[i].Level, r.Sample.Completion}] = true
		}
	}
	b.mu.Unlock()
	return out
}

// timedSource adds a span around every CellSource.Cells call and counts
// the cells queried.
type timedSource struct {
	inner   eval.CellSource
	tr      *tracer
	queries *int
}

func (s timedSource) Cells(qs []eval.Query) []eval.CellStats {
	id := s.tr.begin("eval.cells")
	out := s.inner.Cells(qs)
	s.tr.end(id)
	*s.queries += len(qs)
	return out
}

// percentile returns the q-quantile (0 < q <= 1) of xs by nearest rank;
// xs is sorted in place.
func percentile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[max(i, 0)])
}

// Package ngram implements an order-k backoff n-gram language model over
// token ids, with temperature-controlled sampling. It is the trainable
// generative core of the simulated LLMs: "fine-tuning" a model on the
// Verilog corpus is literally training this LM on the corpus token stream,
// and the free-running completions it produces are what flow through the
// compile/functional pipeline when a model emits neither a correct nor a
// near-miss solution.
//
// Training mutates a map-of-maps count store. After training, Freeze
// compiles that store into a packed immutable sampler (open-addressed
// context tables keyed by uint64 hashes, per-context sorted next-token
// arrays with cumulative counts) so the per-step sampling path allocates
// nothing. The map store stays intact as the differential baseline; both
// paths draw from shared selection code and are byte-identical for every
// temperature and RNG stream.
package ngram

import (
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Model is an order-k n-gram LM with stupid-backoff smoothing.
type Model struct {
	order  int
	counts []map[string]*dist // counts[n] holds (n-token context) -> next-token distribution
	vocab  map[int]bool
	total  int
	frozen *frozenModel // packed sampler; nil until Freeze, cleared by Train
}

type dist struct {
	next  map[int]int
	total int
}

// New creates an untrained model of the given order (order >= 1; order 1 is
// a unigram model).
func New(order int) *Model {
	if order < 1 {
		order = 1
	}
	m := &Model{order: order, vocab: map[int]bool{}}
	m.counts = make([]map[string]*dist, order)
	for i := range m.counts {
		m.counts[i] = map[string]*dist{}
	}
	return m
}

// Order returns the model order.
func (m *Model) Order() int { return m.order }

// VocabSeen returns how many distinct tokens the model has observed.
func (m *Model) VocabSeen() int { return len(m.vocab) }

// TokensTrained returns the total number of training tokens consumed.
func (m *Model) TokensTrained() int { return m.total }

// wideTok is the first token id that no longer fits the compact 3-byte
// context-key encoding. Ids at or above it (and negative ids) escape to a
// marker + 8-byte form; the marker bytes 0xFF 0xFF 0xFF are unreachable in
// the 3-byte form (they would decode to wideTok itself), so keys stay
// injective across mixed widths. The pre-guard encoding silently truncated
// ids to 24 bits, colliding contexts that differed only in high bits.
const wideTok = 0xFFFFFF

func ctxKey(toks []int) string {
	b := make([]byte, 0, len(toks)*3)
	for _, t := range toks {
		if t >= 0 && t < wideTok {
			b = append(b, byte(t), byte(t>>8), byte(t>>16))
			continue
		}
		u := uint64(t)
		b = append(b, 0xFF, 0xFF, 0xFF,
			byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return string(b)
}

// ctxKeyTokens decodes a context key back to its token ids (Freeze walks
// the trained map keys to build the packed tables).
func ctxKeyTokens(key string, n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < len(key); {
		if key[i] == 0xFF && key[i+1] == 0xFF && key[i+2] == 0xFF {
			u := uint64(key[i+3]) | uint64(key[i+4])<<8 | uint64(key[i+5])<<16 |
				uint64(key[i+6])<<24 | uint64(key[i+7])<<32 | uint64(key[i+8])<<40 |
				uint64(key[i+9])<<48 | uint64(key[i+10])<<56
			out = append(out, int(u))
			i += 11
			continue
		}
		out = append(out, int(key[i])|int(key[i+1])<<8|int(key[i+2])<<16)
		i += 3
	}
	return out
}

// Train consumes one token sequence (a document). Training invalidates any
// packed sampler built by an earlier Freeze.
func (m *Model) Train(tokens []int) {
	m.frozen = nil
	for i, tok := range tokens {
		m.vocab[tok] = true
		m.total++
		for n := 0; n < m.order; n++ {
			if i < n {
				break
			}
			key := ctxKey(tokens[i-n : i])
			d := m.counts[n][key]
			if d == nil {
				d = &dist{next: map[int]int{}}
				m.counts[n][key] = d
			}
			d.next[tok]++
			d.total++
		}
	}
}

// contextDist finds the longest-context distribution for the given history
// (stupid backoff).
func (m *Model) contextDist(history []int) *dist {
	for n := m.order - 1; n >= 0; n-- {
		if len(history) < n {
			continue
		}
		key := ctxKey(history[len(history)-n:])
		if d, ok := m.counts[n][key]; ok && d.total > 0 {
			return d
		}
	}
	return nil
}

// ---- shared selection core -------------------------------------------------

// sortedDist is one next-token distribution viewed as ascending token ids
// with inclusive cumulative counts. Both the map path (which builds the
// view per call) and the frozen path (which stores it packed) sample
// through the same pick method, and both fill w through the same
// softmaxCum, so the two engines are byte-identical by construction.
type sortedDist struct {
	toks []int64
	cum  []int64
	w    []float64 // softmaxCum at the draw's temperature when usesWeights
}

func (d sortedDist) count(i int) int64 {
	if i == 0 {
		return d.cum[0]
	}
	return d.cum[i] - d.cum[i-1]
}

// usesWeights reports whether a draw at this temperature samples from
// softmax weights: everything but greedy (<= 0) and the integer-count
// path (exactly 1), NaN included.
func usesWeights(temperature float64) bool {
	return !(temperature <= 0) && temperature != 1
}

// softmaxCum fills w (len(d.toks) long) with the inclusive cumulative
// softmax-over-log-count weights of d at the given temperature. The map
// sampler calls it per draw and the frozen sampler once per temperature;
// one function keeps their float operation order, and so their picks,
// identical.
func softmaxCum(w []float64, d sortedDist, temperature float64) {
	maxLog := math.Inf(-1)
	for i := range w {
		l := math.Log(float64(d.count(i))) / temperature
		if l > maxLog {
			maxLog = l
		}
		w[i] = l
	}
	total := 0.0
	for i := range w {
		total += math.Exp(w[i] - maxLog)
		w[i] = total
	}
}

// pick draws one token. Temperature 0 is greedy (ties break to the
// smallest token id); temperature 1 is a binary search over the integer
// cumulative counts (one rng draw, no float weight construction); other
// temperatures binary-search the softmax weights in d.w. Exactly one
// rng.Float64 is consumed per draw for every temperature > 0.
func (d sortedDist) pick(temperature float64, rng *rand.Rand) int {
	n := len(d.toks)
	if temperature <= 0 {
		best, bestCount := 0, int64(-1)
		for i := 0; i < n; i++ {
			if c := d.count(i); c > bestCount {
				best, bestCount = i, c
			}
		}
		return int(d.toks[best])
	}
	if temperature == 1 {
		r := rng.Float64() * float64(d.cum[n-1])
		i := sort.Search(n, func(i int) bool { return float64(d.cum[i]) > r })
		if i >= n {
			i = n - 1
		}
		return int(d.toks[i])
	}
	r := rng.Float64() * d.w[n-1]
	i := sort.Search(n, func(i int) bool { return d.w[i] > r })
	if i >= n {
		i = n - 1
	}
	return int(d.toks[i])
}

// sortedFromMap builds the selection view of a map-backed distribution
// (the differential-baseline path; allocates per call).
func sortedFromMap(d *dist) sortedDist {
	toks := make([]int64, 0, len(d.next))
	for t := range d.next {
		toks = append(toks, int64(t))
	}
	sort.Slice(toks, func(i, j int) bool { return toks[i] < toks[j] })
	cum := make([]int64, len(toks))
	var c int64
	for i, t := range toks {
		c += int64(d.next[int(t)])
		cum[i] = c
	}
	return sortedDist{toks: toks, cum: cum}
}

// ---- frozen sampler ---------------------------------------------------------

// frozenModel is the packed immutable sampler: one open-addressed context
// table per backoff level, each entry pointing at a slice of the level's
// shared sorted-token/cumulative-count arrays. Lookups hash the history
// suffix to a uint64 (full token width; no truncation) and verify the
// stored context ids, so hash collisions cost a probe, never a wrong
// distribution.
//
// The softmax weights a draw at temperature t searches depend only on
// the distribution and t, and a sweep samples at a handful of
// temperatures, so they are built once per temperature (weightsAt) and
// shared by every goroutine sampling from the model.
type frozenModel struct {
	levels []frozenLevel

	mu sync.RWMutex
	// weights maps math.Float64bits(t) to one softmaxCum slice per level,
	// laid out like that level's toks/cum. Keying by bits makes every NaN
	// or infinite t one stable key (a float key would add an unreachable
	// entry per NaN draw).
	weights map[uint64][][]float64
}

type frozenLevel struct {
	n       int
	mask    uint32
	table   []int32 // entry index + 1; 0 = empty slot
	ctxToks []int64 // packed contexts, n ids per entry
	distOff []int32 // entry i's dist is toks/cum[distOff[i]:distOff[i+1]]
	toks    []int64
	cum     []int64
}

// mix64 is the splitmix64 finalizer, applied per context token.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func hashTokens(ctx []int) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, t := range ctx {
		h = mix64(h ^ uint64(t))
	}
	return h
}

// Freeze compiles the trained counts into the packed sampler. The map
// store is left untouched (Perplexity and the differential baseline keep
// reading it); sampling switches to the packed tables until the next
// Train. Token ids are carried full-width; no id range is corrupted.
func (m *Model) Freeze() {
	fz := &frozenModel{levels: make([]frozenLevel, m.order), weights: map[uint64][][]float64{}}
	for n := 0; n < m.order; n++ {
		lvl := &fz.levels[n]
		lvl.n = n
		size := 4
		for size < 2*len(m.counts[n]) {
			size <<= 1
		}
		lvl.table = make([]int32, size)
		lvl.mask = uint32(size - 1)
		lvl.distOff = append(lvl.distOff, 0)
		//vgencheck:ordered open-addressed layout varies with insertion order, but probes are id-verified and each context's distribution is sorted, so sampled bytes are layout-independent (TestFreezeLayoutIndependent)
		for key, d := range m.counts[n] {
			ctx := ctxKeyTokens(key, n)
			entry := int32(len(lvl.distOff) - 1)
			for _, t := range ctx {
				lvl.ctxToks = append(lvl.ctxToks, int64(t))
			}
			sd := sortedFromMap(d)
			lvl.toks = append(lvl.toks, sd.toks...)
			lvl.cum = append(lvl.cum, sd.cum...)
			lvl.distOff = append(lvl.distOff, int32(len(lvl.toks)))
			idx := uint32(hashTokens(ctx)) & lvl.mask
			for lvl.table[idx] != 0 {
				idx = (idx + 1) & lvl.mask
			}
			lvl.table[idx] = entry + 1
		}
	}
	m.frozen = fz
}

// Frozen reports whether the model currently samples from the packed
// tables.
func (m *Model) Frozen() bool { return m.frozen != nil }

// find returns the entry index for the context, or -1.
func (lvl *frozenLevel) find(ctx []int) int {
	idx := uint32(hashTokens(ctx)) & lvl.mask
	for {
		e := lvl.table[idx]
		if e == 0 {
			return -1
		}
		off := int(e-1) * lvl.n
		match := true
		for i, t := range ctx {
			if lvl.ctxToks[off+i] != int64(t) {
				match = false
				break
			}
		}
		if match {
			return int(e - 1)
		}
		idx = (idx + 1) & lvl.mask
	}
}

// dist returns entry e's distribution.
func (lvl *frozenLevel) dist(e int) sortedDist {
	lo, hi := lvl.distOff[e], lvl.distOff[e+1]
	return sortedDist{toks: lvl.toks[lo:hi], cum: lvl.cum[lo:hi]}
}

// weightsAt returns the per-level softmax weights at temperature,
// building them under the write lock the first time any goroutine asks.
func (fz *frozenModel) weightsAt(temperature float64) [][]float64 {
	key := math.Float64bits(temperature)
	fz.mu.RLock()
	w, ok := fz.weights[key]
	fz.mu.RUnlock()
	if ok {
		return w
	}
	fz.mu.Lock()
	defer fz.mu.Unlock()
	if w, ok := fz.weights[key]; ok {
		return w
	}
	w = make([][]float64, len(fz.levels))
	for n := range fz.levels {
		lvl := &fz.levels[n]
		w[n] = make([]float64, len(lvl.toks))
		for e := 0; e+1 < len(lvl.distOff); e++ {
			softmaxCum(w[n][lvl.distOff[e]:lvl.distOff[e+1]], lvl.dist(e), temperature)
		}
	}
	fz.weights[key] = w
	return w
}

// sample draws from the longest matching context; w is weightsAt(t) when
// usesWeights(t), else nil.
func (fz *frozenModel) sample(history []int, temperature float64, w [][]float64, rng *rand.Rand) (int, bool) {
	for n := len(fz.levels) - 1; n >= 0; n-- {
		if len(history) < n {
			continue
		}
		lvl := &fz.levels[n]
		e := lvl.find(history[len(history)-n:])
		if e < 0 {
			continue
		}
		d := lvl.dist(e)
		if w != nil {
			d.w = w[n][lvl.distOff[e]:lvl.distOff[e+1]]
		}
		return d.pick(temperature, rng), true
	}
	return 0, false
}

// ---- sampling entry points ---------------------------------------------------

// Sample draws the next token given history at the given temperature.
// Temperature 0 is greedy; higher temperatures flatten the distribution.
// The boolean is false when the model has no distribution at all (untrained).
func (m *Model) Sample(history []int, temperature float64, rng *rand.Rand) (int, bool) {
	return m.sample(history, temperature, m.weights(temperature), rng)
}

// weights returns the frozen sampler's weights for draws at temperature,
// or nil when those draws need none or the model samples from the maps.
func (m *Model) weights(temperature float64) [][]float64 {
	if m.frozen == nil || !usesWeights(temperature) {
		return nil
	}
	return m.frozen.weightsAt(temperature)
}

func (m *Model) sample(history []int, temperature float64, w [][]float64, rng *rand.Rand) (int, bool) {
	if m.frozen != nil {
		return m.frozen.sample(history, temperature, w, rng)
	}
	d := m.contextDist(history)
	if d == nil {
		return 0, false
	}
	sd := sortedFromMap(d)
	if usesWeights(temperature) {
		sd.w = make([]float64, len(sd.toks))
		softmaxCum(sd.w, sd, temperature)
	}
	return sd.pick(temperature, rng), true
}

// Generate produces up to maxTokens tokens continuing the prompt.
func (m *Model) Generate(prompt []int, maxTokens int, temperature float64, rng *rand.Rand) []int {
	w := m.weights(temperature)
	history := make([]int, len(prompt), len(prompt)+maxTokens)
	copy(history, prompt)
	out := make([]int, 0, maxTokens)
	for len(out) < maxTokens {
		tok, ok := m.sample(history, temperature, w, rng)
		if !ok {
			break
		}
		out = append(out, tok)
		history = append(history, tok)
	}
	return out
}

// Perplexity computes the per-token perplexity of a sequence under the
// model with stupid backoff (unseen tokens cost a uniform floor over the
// seen vocabulary).
func (m *Model) Perplexity(tokens []int) float64 {
	if len(tokens) == 0 || len(m.vocab) == 0 {
		return math.Inf(1)
	}
	logSum := 0.0
	for i, tok := range tokens {
		var p float64
		hist := tokens[:i]
		d := m.contextDist(hist)
		if d != nil {
			if c, ok := d.next[tok]; ok && c > 0 {
				p = float64(c) / float64(d.total)
			}
		}
		if p == 0 {
			p = 0.5 / float64(len(m.vocab)+d0total(d))
		}
		logSum += math.Log(p)
	}
	return math.Exp(-logSum / float64(len(tokens)))
}

func d0total(d *dist) int {
	if d == nil {
		return 1
	}
	return d.total
}

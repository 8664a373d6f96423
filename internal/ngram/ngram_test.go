package ngram

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func seq(vals ...int) []int { return vals }

func TestTrainAndGreedySample(t *testing.T) {
	m := New(3)
	// "a b c" repeated: after [1 2] always 3
	for i := 0; i < 10; i++ {
		m.Train(seq(1, 2, 3, 1, 2, 3, 1, 2, 3))
	}
	tok, ok := m.Sample(seq(1, 2), 0, rand.New(rand.NewSource(1)))
	if !ok || tok != 3 {
		t.Fatalf("sample = %d, %v", tok, ok)
	}
}

func TestBackoffToShorterContext(t *testing.T) {
	m := New(3)
	m.Train(seq(1, 2, 3, 4, 5))
	// context [9 9] never seen: back off; unigram still answers
	_, ok := m.Sample(seq(9, 9), 0, rand.New(rand.NewSource(1)))
	if !ok {
		t.Fatal("backoff failed to produce a token")
	}
}

func TestUntrainedModelHasNoSample(t *testing.T) {
	m := New(2)
	if _, ok := m.Sample(nil, 0.5, rand.New(rand.NewSource(1))); ok {
		t.Fatal("untrained model produced a token")
	}
}

func TestGenerateLengthAndDeterminism(t *testing.T) {
	m := New(4)
	data := make([]int, 500)
	r := rand.New(rand.NewSource(3))
	for i := range data {
		data[i] = r.Intn(20)
	}
	m.Train(data)
	g1 := m.Generate(seq(1, 2), 50, 0.8, rand.New(rand.NewSource(7)))
	g2 := m.Generate(seq(1, 2), 50, 0.8, rand.New(rand.NewSource(7)))
	if len(g1) != 50 {
		t.Fatalf("generated %d tokens", len(g1))
	}
	for i := range g1 {
		if g1[i] != g2[i] {
			t.Fatal("generation not deterministic for equal seeds")
		}
	}
}

func TestTemperatureSpreadsChoices(t *testing.T) {
	m := New(2)
	// after 1: mostly 2, occasionally 3
	for i := 0; i < 95; i++ {
		m.Train(seq(1, 2))
	}
	for i := 0; i < 5; i++ {
		m.Train(seq(1, 3))
	}
	count3 := func(temp float64) int {
		rng := rand.New(rand.NewSource(11))
		n := 0
		for i := 0; i < 1000; i++ {
			tok, _ := m.Sample(seq(1), temp, rng)
			if tok == 3 {
				n++
			}
		}
		return n
	}
	low := count3(0.2)
	high := count3(2.0)
	if !(low < high) {
		t.Fatalf("temperature did not spread: low=%d high=%d", low, high)
	}
	if g, _ := m.Sample(seq(1), 0, rand.New(rand.NewSource(1))); g != 2 {
		t.Fatalf("greedy picked %d", g)
	}
}

func TestPerplexityLowerOnTrainingDistribution(t *testing.T) {
	m := New(3)
	var train []int
	for i := 0; i < 200; i++ {
		train = append(train, 1, 2, 3, 4)
	}
	m.Train(train)
	inDist := m.Perplexity(seq(1, 2, 3, 4, 1, 2, 3, 4))
	outDist := m.Perplexity(seq(4, 3, 2, 1, 4, 3, 2, 1))
	if !(inDist < outDist) {
		t.Fatalf("perplexity in=%f out=%f", inDist, outDist)
	}
	if math.IsInf(New(2).Perplexity(seq(1)), 0) != true {
		t.Fatal("untrained perplexity should be +Inf")
	}
}

func TestStatsAccessors(t *testing.T) {
	m := New(2)
	m.Train(seq(5, 6, 7))
	if m.Order() != 2 {
		t.Errorf("order = %d", m.Order())
	}
	if m.VocabSeen() != 3 {
		t.Errorf("vocab = %d", m.VocabSeen())
	}
	if m.TokensTrained() != 3 {
		t.Errorf("tokens = %d", m.TokensTrained())
	}
}

func TestOrderClampedToOne(t *testing.T) {
	m := New(0)
	if m.Order() != 1 {
		t.Fatalf("order = %d", m.Order())
	}
	m.Train(seq(1, 1, 1))
	if tok, ok := m.Sample(nil, 0, rand.New(rand.NewSource(1))); !ok || tok != 1 {
		t.Fatalf("unigram sample = %d, %v", tok, ok)
	}
}

// TestFrozenMatchesMapSampler is the equivalence contract of the packed
// sampler: for every temperature regime (greedy, the t=1 integer
// cumulative-count search, and the general softmax path, whose weights
// the frozen model caches per temperature) a frozen model must generate
// the exact token stream the map-backed baseline does on the same RNG
// stream. The temperatures include ones no sweep uses, so each builds a
// fresh weight table.
func TestFrozenMatchesMapSampler(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	data := make([]int, 4000)
	for i := range data {
		data[i] = rng.Intn(90)
	}
	for _, order := range []int{1, 2, 4} {
		mapM := New(order)
		frozenM := New(order)
		mapM.Train(data)
		frozenM.Train(data)
		frozenM.Freeze()
		if !frozenM.Frozen() || mapM.Frozen() {
			t.Fatal("freeze state wrong")
		}
		for _, temp := range []float64{0, 0.05, 0.1, 0.5, 0.9, 1.0, 1.3, 1.5, 2.0, 3.0} {
			for seed := int64(0); seed < 20; seed++ {
				prompt := data[int(seed)*7 : int(seed)*7+3]
				g1 := mapM.Generate(prompt, 80, temp, rand.New(rand.NewSource(seed)))
				g2 := frozenM.Generate(prompt, 80, temp, rand.New(rand.NewSource(seed)))
				if len(g1) != len(g2) {
					t.Fatalf("order %d t=%.1f seed %d: lengths %d vs %d", order, temp, seed, len(g1), len(g2))
				}
				for i := range g1 {
					if g1[i] != g2[i] {
						t.Fatalf("order %d t=%.1f seed %d: token %d diverged: map %d frozen %d",
							order, temp, seed, i, g1[i], g2[i])
					}
				}
			}
		}
	}
}

// trainedFrozen returns a frozen order-3 model over a random stream.
func trainedFrozen(seed int64) (*Model, []int) {
	rng := rand.New(rand.NewSource(seed))
	data := make([]int, 3000)
	for i := range data {
		data[i] = rng.Intn(60)
	}
	m := New(3)
	m.Train(data)
	m.Freeze()
	return m, data
}

// TestConcurrentFirstDrawsAgree has many goroutines draw at once at a
// temperature no one has drawn at yet, so they race to build its weight
// table. Every stream must equal the one a single goroutine draws, and
// the cache must end up holding that one table.
func TestConcurrentFirstDrawsAgree(t *testing.T) {
	m, data := trainedFrozen(5)
	ref, _ := trainedFrozen(5)
	const temp = 0.77
	want := ref.Generate(data[:2], 200, temp, rand.New(rand.NewSource(9)))
	const workers = 16
	got := make([][]int, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = m.Generate(data[:2], 200, temp, rand.New(rand.NewSource(9)))
		}(g)
	}
	wg.Wait()
	for g, stream := range got {
		if !slices.Equal(stream, want) {
			t.Fatalf("goroutine %d drew a different stream", g)
		}
	}
	if n := len(m.frozen.weights); n != 1 {
		t.Fatalf("%d weight tables built, want 1", n)
	}
}

// TestWeightCacheBoundedForNaNAndInf pins the cache key: a float64 map
// key would add an entry per NaN draw (NaN != NaN), so repeated NaN and
// +Inf draws must each leave exactly one entry, while greedy and t=1
// draws build none. Both still match the map sampler.
func TestWeightCacheBoundedForNaNAndInf(t *testing.T) {
	m, data := trainedFrozen(6)
	mapM := New(3)
	mapM.Train(data)
	for _, temp := range []float64{0, 1, math.NaN(), math.Inf(1)} {
		for seed := int64(0); seed < 25; seed++ {
			g1 := m.Generate(data[seed:seed+2], 30, temp, rand.New(rand.NewSource(seed)))
			g2 := mapM.Generate(data[seed:seed+2], 30, temp, rand.New(rand.NewSource(seed)))
			if !slices.Equal(g1, g2) {
				t.Fatalf("t=%v seed %d: frozen %v, map %v", temp, seed, g1, g2)
			}
			m.Sample(data[:2], temp, rand.New(rand.NewSource(seed)))
		}
	}
	if n := len(m.frozen.weights); n != 2 {
		t.Fatalf("weight cache holds %d entries after NaN/+Inf draws, want 2", n)
	}
}

// TestWideTokenContextsDistinct pins the ctxKey width guard: token ids
// that differ only above bit 23 used to collide under the silent 3-byte
// truncation, merging unrelated contexts. Both the guarded map path and
// the frozen hash path must keep them apart.
func TestWideTokenContextsDistinct(t *testing.T) {
	const wide = 1 << 24
	check := func(m *Model, label string) {
		t.Helper()
		if tok, ok := m.Sample(seq(5), 0, rand.New(rand.NewSource(1))); !ok || tok != 100 {
			t.Fatalf("%s: after [5] got %d, want 100", label, tok)
		}
		if tok, ok := m.Sample(seq(5+wide), 0, rand.New(rand.NewSource(1))); !ok || tok != 200 {
			t.Fatalf("%s: after [5+2^24] got %d, want 200", label, tok)
		}
	}
	m := New(2)
	m.Train(seq(5, 100))
	m.Train(seq(5+wide, 200))
	check(m, "map")
	m.Freeze()
	check(m, "frozen")
}

// TestCtxKeyInjective exercises the mixed-width key encoding directly:
// boundary ids around the escape threshold, negatives, and the marker
// value itself must all round-trip and stay distinct.
func TestCtxKeyInjective(t *testing.T) {
	ids := []int{0, 1, 255, 65535, wideTok - 1, wideTok, wideTok + 1, 1 << 30, -1, -(1 << 30)}
	seen := map[string][]int{}
	for _, a := range ids {
		for _, b := range ids {
			ctx := []int{a, b}
			key := ctxKey(ctx)
			if prev, dup := seen[key]; dup {
				t.Fatalf("key collision: %v and %v", prev, ctx)
			}
			seen[key] = ctx
			got := ctxKeyTokens(key, 2)
			if len(got) != 2 || got[0] != a || got[1] != b {
				t.Fatalf("round trip %v -> %v", ctx, got)
			}
		}
	}
}

// TestTrainInvalidatesFrozen pins Freeze staleness handling: training
// after a freeze must drop the packed tables so samples see the new
// counts.
func TestTrainInvalidatesFrozen(t *testing.T) {
	m := New(2)
	m.Train(seq(1, 2))
	m.Freeze()
	m.Train(seq(1, 3, 1, 3, 1, 3))
	if m.Frozen() {
		t.Fatal("Train did not invalidate the frozen sampler")
	}
	if tok, _ := m.Sample(seq(1), 0, rand.New(rand.NewSource(1))); tok != 3 {
		t.Fatalf("post-retrain greedy = %d, want 3", tok)
	}
}

// TestHugeTokenIDsSurviveSampling pins full-width id handling in the
// selection core: ids at and above 2^31 must come back unmangled from
// both the map and frozen paths (an earlier cut stored next-token ids as
// int32, silently wrapping 1<<31 to -2^31).
func TestHugeTokenIDsSurviveSampling(t *testing.T) {
	const huge = 1 << 31
	m := New(2)
	m.Train(seq(1, huge, 1, huge))
	for _, label := range []string{"map", "frozen"} {
		if tok, ok := m.Sample(seq(1), 0, rand.New(rand.NewSource(1))); !ok || tok != huge {
			t.Fatalf("%s: greedy after [1] = %d, want %d", label, tok, huge)
		}
		if tok, ok := m.Sample(seq(1), 1.0, rand.New(rand.NewSource(2))); !ok || tok != huge {
			t.Fatalf("%s: t=1 after [1] = %d, want %d", label, tok, huge)
		}
		m.Freeze()
	}
}

// TestFreezeLayoutIndependent backs the //vgencheck:ordered waiver in
// Freeze: the open-addressed table layout follows count-map iteration
// order, which in turn follows insertion order, so two models trained on
// the same data in different sequence orders pack their tables
// differently — yet every sampled byte must be identical. If a layout
// artifact ever leaked into selection, this is the test that catches it.
func TestFreezeLayoutIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	chunks := make([][]int, 64)
	for i := range chunks {
		chunk := make([]int, 40)
		for j := range chunk {
			chunk[j] = rng.Intn(70)
		}
		chunks[i] = chunk
	}
	forward := New(3)
	backward := New(3)
	for _, c := range chunks {
		forward.Train(c)
	}
	for i := len(chunks) - 1; i >= 0; i-- {
		backward.Train(chunks[i])
	}
	forward.Freeze()
	backward.Freeze()
	for _, temp := range []float64{0, 0.7, 1.0, 1.6} {
		for seed := int64(0); seed < 16; seed++ {
			prompt := chunks[seed][:2]
			g1 := forward.Generate(prompt, 120, temp, rand.New(rand.NewSource(seed)))
			g2 := backward.Generate(prompt, 120, temp, rand.New(rand.NewSource(seed)))
			if len(g1) != len(g2) {
				t.Fatalf("t=%.1f seed %d: lengths %d vs %d", temp, seed, len(g1), len(g2))
			}
			for i := range g1 {
				if g1[i] != g2[i] {
					t.Fatalf("t=%.1f seed %d: token %d diverged: %d vs %d", temp, seed, i, g1[i], g2[i])
				}
			}
		}
	}
	p1 := forward.Perplexity(chunks[0])
	p2 := backward.Perplexity(chunks[0])
	if p1 != p2 {
		t.Fatalf("perplexity diverged: %v vs %v", p1, p2)
	}
}

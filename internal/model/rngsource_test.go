package model

import (
	"math"
	"math/rand"
	"testing"
)

// differentialSeeds covers the seed normalisation edges (zero, signs,
// the modulus and its multiples, the int64 extremes) plus thousands of
// the seeds sweeps actually use.
func differentialSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, -2, 89482311, -89482311,
		lehmerM, -lehmerM, lehmerM - 1, -(lehmerM - 1), lehmerM + 1, -(lehmerM + 1),
		2 * lehmerM, -2 * lehmerM, 89482311 + lehmerM, 1 << 31, -(1 << 31),
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
		math.MaxInt64 / lehmerM * lehmerM, math.MinInt64 / lehmerM * lehmerM,
	}
	for base := int64(0); base < 60; base++ {
		for idx := 0; idx < 50; idx++ {
			seeds = append(seeds, SampleSeed(base*7919-30000, idx))
		}
	}
	return seeds
}

// TestLazySourceMatchesStdlib is the bit-identity contract of the lazy
// source: for every seed its raw Uint64/Int63 stream equals
// rand.NewSource's well past 2×607 draws, so every feed/tap wrap of the
// lagged-Fibonacci register is covered.
func TestLazySourceMatchesStdlib(t *testing.T) {
	const draws = 2*rngLen + 97
	for _, seed := range differentialSeeds() {
		want := rand.NewSource(seed).(rand.Source64)
		got := NewSource(seed)
		for i := 0; i < draws; i++ {
			var w, g uint64
			if i%3 == 2 {
				w, g = uint64(want.Int63()), uint64(got.Int63())
			} else {
				w, g = want.Uint64(), got.Uint64()
			}
			if w != g {
				t.Fatalf("seed %d draw %d: stdlib %#x, lazy %#x", seed, i, w, g)
			}
		}
	}
}

// TestLazySourceThroughRand drives both sources through rand.Rand with a
// mixed call sequence. rand.Rand routes Uint64 through the Source64
// method and everything else through Int63, and Perm, Shuffle, Intn and
// Float64 consume draws in data-dependent amounts, so this covers the
// interleavings the generators produce. Reseeding mid-stream through
// rand.Rand.Seed must restart the identical stream too.
func TestLazySourceThroughRand(t *testing.T) {
	seeds := differentialSeeds()
	for k, seed := range seeds {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(NewSource(seed))
		script := rand.New(rand.NewSource(int64(k)))
		for step := 0; step < 400; step++ {
			op := script.Intn(7)
			if step%100 == 99 {
				op = 7
			}
			var w, g []int64
			switch op {
			case 0:
				w, g = []int64{want.Int63()}, []int64{got.Int63()}
			case 1:
				w, g = []int64{int64(want.Uint64())}, []int64{int64(got.Uint64())}
			case 2:
				n := 1 + script.Intn(1000)
				w, g = []int64{int64(want.Intn(n))}, []int64{int64(got.Intn(n))}
			case 3:
				w = []int64{int64(math.Float64bits(want.Float64()))}
				g = []int64{int64(math.Float64bits(got.Float64()))}
			case 4:
				n := script.Intn(40)
				for _, v := range want.Perm(n) {
					w = append(w, int64(v))
				}
				for _, v := range got.Perm(n) {
					g = append(g, int64(v))
				}
			case 5:
				n := script.Intn(40)
				a, b := make([]int64, n), make([]int64, n)
				for i := range a {
					a[i], b[i] = int64(i), int64(i)
				}
				want.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
				got.Shuffle(n, func(i, j int) { b[i], b[j] = b[j], b[i] })
				w, g = a, b
			case 6:
				w, g = []int64{want.Int63n(1 << 40)}, []int64{got.Int63n(1 << 40)}
			case 7:
				s := seeds[script.Intn(len(seeds))]
				want.Seed(s)
				got.Seed(s)
			}
			if len(w) != len(g) {
				t.Fatalf("seed %d step %d op %d: %d vs %d values", seed, step, op, len(w), len(g))
			}
			for i := range w {
				if w[i] != g[i] {
					t.Fatalf("seed %d step %d op %d: stdlib %v, lazy %v", seed, step, op, w, g)
				}
			}
		}
	}
}

// TestSampleRandMatchesStdlib pins the helper the generators call to the
// expression it replaced.
func TestSampleRandMatchesStdlib(t *testing.T) {
	for idx := 0; idx < 64; idx++ {
		want := rand.New(rand.NewSource(SampleSeed(42, idx)))
		got := SampleRand(42, idx)
		for i := 0; i < 50; i++ {
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("idx %d draw %d: %v vs %v", idx, i, w, g)
			}
		}
	}
}

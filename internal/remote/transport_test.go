package remote

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"repro/internal/gen"
)

func testTransport(t *testing.T, seed int64) *Transport {
	t.Helper()
	tr, err := NewTransport(gen.RemoteOptions{
		Endpoint:    "http://127.0.0.1:1", // never dialed by these tests
		BackoffBase: 50 * time.Millisecond,
		BackoffCap:  2 * time.Second,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestBackoffDeterministic pins the supervisor-style jitter contract:
// the delay is a pure function of (seed, coord, attempt), lands in
// [d/2, d) of the capped exponential schedule, and decorrelates across
// seeds and coordinates.
func TestBackoffDeterministic(t *testing.T) {
	a := testTransport(t, 42)
	b := testTransport(t, 42)
	other := testTransport(t, 43)

	base := a.cfg.BackoffBase
	distinct := false
	for _, coord := range []uint64{0, 1, 0xdeadbeef} {
		for attempt := 1; attempt <= 8; attempt++ {
			d1 := a.backoff(coord, attempt)
			if d2 := b.backoff(coord, attempt); d1 != d2 {
				t.Fatalf("same (seed,coord,attempt) gave %v then %v", d1, d2)
			}
			want := base
			for i := 1; i < attempt && want < a.cfg.BackoffCap; i++ {
				want *= 2
			}
			if want > a.cfg.BackoffCap {
				want = a.cfg.BackoffCap
			}
			if d1 < want/2 || d1 >= want {
				t.Fatalf("coord %#x attempt %d: delay %v outside [%v, %v)", coord, attempt, d1, want/2, want)
			}
			if other.backoff(coord, attempt) != d1 {
				distinct = true
			}
		}
	}
	if !distinct {
		t.Fatal("jitter ignores the seed: every delay matched across seeds")
	}
}

// TestBreakerStateMachine walks closed -> open -> half-open -> open
// (failed probe) -> half-open -> closed (successful probe).
func TestBreakerStateMachine(t *testing.T) {
	br := newBreaker(2, 20*time.Millisecond)

	if !br.Allow() {
		t.Fatal("fresh breaker should be closed")
	}
	br.Failure()
	if got := br.snapshot(); got != breakerClosed {
		t.Fatalf("one failure under threshold 2 should stay closed, got %v", got)
	}
	br.Failure()
	if got := br.snapshot(); got != breakerOpen {
		t.Fatalf("threshold reached: want open, got %v", got)
	}
	if br.Allow() {
		t.Fatal("open breaker inside cooldown must reject")
	}

	time.Sleep(25 * time.Millisecond)
	if !br.Allow() {
		t.Fatal("cooldown elapsed: the first caller becomes the probe")
	}
	if br.Allow() {
		t.Fatal("only one probe may fly while half-open")
	}
	br.Failure() // failed probe
	if got := br.snapshot(); got != breakerOpen {
		t.Fatalf("failed probe should re-open, got %v", got)
	}

	time.Sleep(25 * time.Millisecond)
	if !br.Allow() {
		t.Fatal("second cooldown elapsed: probe again")
	}
	br.Success()
	if got := br.snapshot(); got != breakerClosed {
		t.Fatalf("successful probe should close, got %v", got)
	}
	if !br.Allow() {
		t.Fatal("closed breaker must allow")
	}
	// A success also resets the consecutive-failure count.
	br.Failure()
	if got := br.snapshot(); got != breakerClosed {
		t.Fatalf("failure streak should have reset on success, got %v", got)
	}
}

// TestRetryableClassification pins which errors burn retry budget.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{&statusError{code: http.StatusInternalServerError}, true},
		{&statusError{code: http.StatusServiceUnavailable}, true},
		{&statusError{code: http.StatusTooManyRequests}, true},
		{&statusError{code: http.StatusRequestTimeout}, true},
		{&statusError{code: http.StatusUnauthorized}, false},
		{&statusError{code: http.StatusBadRequest}, false},
		{&statusError{code: http.StatusNotFound}, false},
		{errBreakerOpen, true},
	}
	for _, c := range cases {
		if got := retryable(c.err); got != c.want {
			t.Errorf("retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestIdemKeyStable pins idempotency keys: equal coordinates yield equal
// keys; any coordinate change yields a different key.
func TestIdemKeyStable(t *testing.T) {
	base := wireRequest{Model: "m", Variant: "v", Problem: 3, Level: 1, Temperature: 0.25, Sample: 2, BaseSeed: 55}
	if idemKey(base) != idemKey(base) {
		t.Fatal("idempotency key is not a pure function of coordinates")
	}
	mutants := []wireRequest{base, base, base, base, base, base, base}
	mutants[0].Model = "m2"
	mutants[1].Variant = "v2"
	mutants[2].Problem = 4
	mutants[3].Level = 2
	mutants[4].Temperature = 0.250001
	mutants[5].Sample = 3
	mutants[6].BaseSeed = 56
	for i, m := range mutants {
		if idemKey(m) == idemKey(base) {
			t.Errorf("mutant %d collides with base key", i)
		}
	}
}

// TestRetryBookkeepingZeroAlloc pins the per-attempt hot path — breaker
// consultation, success bookkeeping, and backoff computation — at zero
// heap allocations, so retrying never adds GC pressure to a sweep.
func TestRetryBookkeepingZeroAlloc(t *testing.T) {
	tr := testTransport(t, 7)
	if n := testing.AllocsPerRun(1000, func() {
		if tr.br.Allow() {
			tr.br.Success()
		}
		_ = tr.backoff(0xabcdef, 3)
	}); n != 0 {
		t.Fatalf("retry bookkeeping allocates %.1f times per attempt; want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		tr.br.Failure()
		tr.br.Success()
	}); n != 0 {
		t.Fatalf("breaker failure path allocates %.1f times; want 0", n)
	}
}

// BenchmarkRetryBookkeeping measures the fixed per-attempt overhead the
// transport adds on top of the HTTP exchange itself.
func BenchmarkRetryBookkeeping(b *testing.B) {
	tr, err := NewTransport(gen.RemoteOptions{Endpoint: "http://127.0.0.1:1", Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tr.br.Allow() {
			tr.br.Success()
		}
		_ = tr.backoff(uint64(i), 1+i%4)
	}
}

// TestCorruptJSONHelper keeps the fault server's corruption actually
// corrupt: output must not unmarshal as a completeResponse.
func TestCorruptJSONHelper(t *testing.T) {
	in := []byte(`{"results":[{"ok":true,"completion":"x"}]}`)
	out := corruptJSON(in)
	var resp completeResponse
	if err := json.Unmarshal(out, &resp); err == nil {
		t.Fatalf("corruptJSON produced valid JSON: %s", out)
	}
}

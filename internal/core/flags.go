package core

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/eval"
)

// Flags is the sweep configuration shared by the vgen-eval and vgen-coord
// command lines: the flags both mean the same way, defined once so a
// supervised run and a monolithic run of one sweep are configured
// identically. Flags whose meaning differs per command stay there.
type Flags struct {
	seed        int64
	n           int
	quick       bool
	corpusFiles int
	workers     int
	backend     string

	endpoint       string
	authEnv        string
	remoteTimeout  time.Duration
	remoteBudget   time.Duration
	remoteInflight int
}

// RegisterFlags defines the shared sweep flags on fs. Call Config after
// fs.Parse.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Int64Var(&f.seed, "seed", 1, "determinism seed for corpus, models and sampling")
	fs.IntVar(&f.n, "n", 10, "completions per prompt")
	fs.BoolVar(&f.quick, "quick", false, "sweep only t=0.1 with at most 6 completions per prompt (fast; matches best-t tables)")
	fs.IntVar(&f.corpusFiles, "corpus-files", 0, "synthetic corpus size (0 = default)")
	fs.IntVar(&f.workers, "workers", 0, "evaluation worker pool width (0 = GOMAXPROCS, 1 = serial); results are identical at any width")
	fs.StringVar(&f.backend, "backend", "family", "generation backend by name ('list' prints the registry)")
	fs.StringVar(&f.endpoint, "endpoint", "", "remote backend: completion service URL, e.g. http://127.0.0.1:8473 (implies -backend remote)")
	fs.StringVar(&f.authEnv, "auth-env", "", "remote backend: environment variable holding the bearer token (the token never appears in argv)")
	fs.DurationVar(&f.remoteTimeout, "remote-timeout", 0, "remote backend: per-attempt HTTP deadline (0 = 30s)")
	fs.DurationVar(&f.remoteBudget, "remote-budget", 0, "remote backend: deadline shared by every request of the process (0 = none)")
	fs.IntVar(&f.remoteInflight, "remote-inflight", 0, "remote backend: max concurrent HTTP requests (0 = 16)")
	return f
}

// Config validates the parsed flags and returns the sweep configuration
// they select. -endpoint implies the remote backend and conflicts with
// any other; the remote backend needs -endpoint; -auth-env must name a
// set variable, whose value becomes the bearer token. -quick restricts
// the sweep to t=0.1 and at most 6 completions per prompt, which keeps
// the best-temperature table values (best is t=0.1 by construction and in
// the paper) while running in seconds.
func (f *Flags) Config() (Config, error) {
	cfg := Config{
		Seed: f.seed, CorpusFiles: f.corpusFiles, Workers: f.workers,
		Sweep:   eval.SweepOptions{N: f.n},
		Backend: f.backend,
	}
	if f.quick {
		cfg.Sweep.Temperatures = []float64{0.1}
		if cfg.Sweep.N > 6 {
			cfg.Sweep.N = 6
		}
	}
	if f.endpoint != "" {
		switch cfg.Backend {
		case "family": // default value: -endpoint alone implies the remote backend
			cfg.Backend = "remote"
		case "remote":
		default:
			return cfg, fmt.Errorf("-endpoint conflicts with -backend %s (the endpoint would be ignored)", cfg.Backend)
		}
	}
	if cfg.Backend == "remote" && f.endpoint == "" {
		return cfg, errors.New("-backend remote needs -endpoint (the vgen-serve URL)")
	}
	cfg.Remote.Endpoint = f.endpoint
	cfg.Remote.Timeout = f.remoteTimeout
	cfg.Remote.Budget = f.remoteBudget
	cfg.Remote.MaxInFlight = f.remoteInflight
	if f.authEnv != "" {
		cfg.Remote.AuthToken = os.Getenv(f.authEnv)
		if cfg.Remote.AuthToken == "" {
			return cfg, fmt.Errorf("-auth-env: environment variable %s is empty or unset", f.authEnv)
		}
	}
	return cfg, nil
}

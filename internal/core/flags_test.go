package core

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/gen"
)

// TestFlagsConfig pins the shared sweep flag binding: the -quick sweep
// conversion, -endpoint implying the remote backend, and the three
// configuration errors both CLIs rely on it to report.
func TestFlagsConfig(t *testing.T) {
	t.Setenv("VGEN_FLAGS_TEST_TOKEN", "sesame")
	t.Setenv("VGEN_FLAGS_TEST_EMPTY", "")
	for _, tc := range []struct {
		name    string
		args    []string
		want    Config
		wantErr string
	}{
		{
			name: "defaults",
			want: Config{Seed: 1, Sweep: eval.SweepOptions{N: 10}, Backend: "family"},
		},
		{
			name: "quick caps n at 6 and sweeps only t=0.1",
			args: []string{"-quick", "-seed", "4", "-corpus-files", "60", "-workers", "2"},
			want: Config{Seed: 4, CorpusFiles: 60, Workers: 2, Backend: "family",
				Sweep: eval.SweepOptions{N: 6, Temperatures: []float64{0.1}}},
		},
		{
			name: "quick keeps a smaller n",
			args: []string{"-quick", "-n", "4"},
			want: Config{Seed: 1, Backend: "family", Sweep: eval.SweepOptions{N: 4, Temperatures: []float64{0.1}}},
		},
		{
			name: "endpoint implies remote",
			args: []string{"-endpoint", "http://127.0.0.1:9", "-auth-env", "VGEN_FLAGS_TEST_TOKEN",
				"-remote-timeout", "3s", "-remote-budget", "1m", "-remote-inflight", "4"},
			want: Config{Seed: 1, Sweep: eval.SweepOptions{N: 10}, Backend: "remote",
				Remote: gen.RemoteOptions{Endpoint: "http://127.0.0.1:9", AuthToken: "sesame",
					Timeout: 3 * time.Second, Budget: time.Minute, MaxInFlight: 4}},
		},
		{
			name: "explicit remote with endpoint",
			args: []string{"-backend", "remote", "-endpoint", "http://127.0.0.1:9"},
			want: Config{Seed: 1, Sweep: eval.SweepOptions{N: 10}, Backend: "remote",
				Remote: gen.RemoteOptions{Endpoint: "http://127.0.0.1:9"}},
		},
		{
			name:    "endpoint conflicts with another backend",
			args:    []string{"-backend", "mutant", "-endpoint", "http://127.0.0.1:9"},
			wantErr: "-endpoint conflicts with -backend mutant",
		},
		{
			name:    "remote needs an endpoint",
			args:    []string{"-backend", "remote"},
			wantErr: "-backend remote needs -endpoint",
		},
		{
			name:    "auth-env names an unset variable",
			args:    []string{"-endpoint", "http://127.0.0.1:9", "-auth-env", "VGEN_FLAGS_TEST_UNSET"},
			wantErr: "VGEN_FLAGS_TEST_UNSET is empty or unset",
		},
		{
			name:    "auth-env names an empty variable",
			args:    []string{"-endpoint", "http://127.0.0.1:9", "-auth-env", "VGEN_FLAGS_TEST_EMPTY"},
			wantErr: "VGEN_FLAGS_TEST_EMPTY is empty or unset",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := RegisterFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, err := f.Config()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("config = %+v\nwant     %+v", got, tc.want)
			}
		})
	}
}

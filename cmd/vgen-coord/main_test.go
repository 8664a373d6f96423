package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/coord"
)

func parseTestArgs(t *testing.T, args []string) (*cli, error) {
	t.Helper()
	fs := flag.NewFlagSet("vgen-coord", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseArgs(fs, args)
}

// TestWorkerArgvInheritsConfig pins the -proc worker command line: a
// worker re-executes the coordinator's own arguments, so it runs the
// coordinator's framework configuration except the result store, which
// only the coordinator writes. The auth token stays out of argv.
func TestWorkerArgvInheritsConfig(t *testing.T) {
	t.Setenv("VGEN_COORD_TEST_TOKEN", "sesame")
	args := []string{
		"-seed", "3", "-n", "4", "-quick", "-workers", "1",
		"-endpoint", "http://127.0.0.1:9", "-auth-env", "VGEN_COORD_TEST_TOKEN",
		"-remote-timeout", "7s", "-store", t.TempDir(),
		"-dir", t.TempDir(), "-shards", "4", "-parallel", "2", "-proc",
	}
	c, err := parseTestArgs(t, args)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c.config()
	if err != nil {
		t.Fatal(err)
	}
	if c.worker() || want.StoreDir == "" || want.Remote.AuthToken != "sesame" {
		t.Fatalf("coordinator config wrong: worker=%v %+v", c.worker(), want)
	}

	argv := workerArgv("/bin/vgen-coord", args, coord.Attempt{PlanPath: "plan.jsonl", OutPath: "out.jsonl"})
	if argv[0] != "/bin/vgen-coord" {
		t.Fatalf("argv[0] = %q", argv[0])
	}
	for _, a := range argv {
		if strings.Contains(a, "sesame") {
			t.Fatalf("auth token leaked into worker argv: %q", argv)
		}
	}
	w, err := parseTestArgs(t, argv[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !w.worker() || w.workerPlan != "plan.jsonl" || w.workerOut != "out.jsonl" {
		t.Fatalf("worker mode not selected: plan %q out %q", w.workerPlan, w.workerOut)
	}
	got, err := w.config()
	if err != nil {
		t.Fatal(err)
	}
	want.StoreDir = ""
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("worker config = %+v\nwant               %+v", got, want)
	}
}

// TestPositionalArgumentRejected: a stray argument would stop flag
// parsing before the worker flags appended to a re-executed command line.
func TestPositionalArgumentRejected(t *testing.T) {
	if _, err := parseTestArgs(t, []string{"-dir", "state", "stray"}); err == nil || !strings.Contains(err.Error(), "stray") {
		t.Fatalf("err = %v, want one naming the stray argument", err)
	}
}

package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestLatestTwoOrdersByName pins the baseline choice on a fresh checkout:
// every file carries the same mtime, so the order must come from the date
// and the numeric same-day suffix in the names (.10 after .2), never from
// the filesystem or the glob order.
func TestLatestTwoOrdersByName(t *testing.T) {
	cases := []struct {
		files    []string
		old, new string
	}{
		{[]string{"BENCH_20260808.2.json", "BENCH_20260728.json", "BENCH_20260808.json", "BENCH_20260728.2.json"},
			"BENCH_20260808.json", "BENCH_20260808.2.json"},
		{[]string{"BENCH_20260808.10.json", "BENCH_20260808.9.json", "BENCH_20260808.json"},
			"BENCH_20260808.9.json", "BENCH_20260808.10.json"},
		{[]string{"BENCH_20260901.json", "BENCH_20260808.3.json", "BENCH_notes.json"},
			"BENCH_20260808.3.json", "BENCH_20260901.json"},
	}
	stamp := time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)
	for _, c := range cases {
		dir := t.TempDir()
		for _, name := range c.files {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.Chtimes(path, stamp, stamp); err != nil {
				t.Fatal(err)
			}
		}
		old, new, err := latestTwo(dir)
		if err != nil {
			t.Fatalf("%v: %v", c.files, err)
		}
		if filepath.Base(old) != c.old || filepath.Base(new) != c.new {
			t.Errorf("%v: compared %s -> %s, want %s -> %s",
				c.files, filepath.Base(old), filepath.Base(new), c.old, c.new)
		}
	}
}

func TestLatestTwoNeedsTwoFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_20260808.json"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := latestTwo(dir); err == nil {
		t.Error("one bench file compared without error")
	}
}

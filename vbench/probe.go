package main

// The host-speed probe. The benchmark runs on shared virtual machines
// whose speed drifts by tens of percent within minutes, as neighbours take
// CPU time, cache, and memory bandwidth: two sets of runs of one commit a
// quarter of an hour apart differed by 26% in wall and CPU time on one
// workload while the others agreed within 3%. So after each run the
// benchmark runs probe processes, each a fixed amount of work done by the
// standard library alone, never by the program, and reports the
// end-to-end times scaled by reference ÷ probe time: seconds of a host
// running at the reference speed. The raw medians go into the
// environment stamp.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"sync"
	"syscall"
	"time"
)

// The probe's reference wall and CPU times, about what probeWork takes on
// a quiet 2-vCPU Xeon VM. They set only the scale of the reported
// numbers; comparisons between commits do not depend on them.
const (
	probeRefWallS = 0.25
	probeRefCPUS  = 0.50
)

// probeReport is one probe process's measurement.
type probeReport struct {
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"cpu_s"`
	Sum   uint64  `json:"sum"`
}

// probeMain is a probe process: it times probeWork at the benchmark's
// width and prints one JSON line.
func probeMain() int {
	t := time.Now()
	sum := probeWork(width)
	wall := time.Since(t).Seconds()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintln(os.Stderr, "vbench probe:", err)
		return 2
	}
	out, _ := json.Marshal(probeReport{WallS: wall, CPUS: float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, Sum: sum})
	fmt.Printf("%s\n", out)
	return 0
}

// probeSum is what probeWork returns at the benchmark's width; a probe
// that returns anything else did other work and is refused.
const probeSum uint64 = 2830256644439669302

// probeWork does the kind of work the program does — building short
// strings, hashing them into maps, sorting, digesting, and leaving
// garbage for the collector — in w goroutines, and returns a checksum.
func probeWork(w int) uint64 {
	const n = 60000
	sums := make([]uint64, w)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := uint64(g)*0x9e3779b97f4a7c15 + 1
			next := func() uint64 { // xorshift64
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				return x
			}
			for round := 0; round < 3; round++ {
				m := map[string]int{}
				var keys []string
				for i := 0; i < n; i++ {
					b := make([]byte, 8+next()%40)
					for j := range b {
						b[j] = 'a' + byte(next()%26)
					}
					s := string(b)
					m[s] += i
					if i%3 == 0 {
						keys = append(keys, s)
					}
				}
				sort.Strings(keys)
				h := sha256.New()
				for _, k := range keys {
					h.Write([]byte(k))
				}
				sums[g] += binary.LittleEndian.Uint64(h.Sum(nil)) + uint64(len(m))
			}
		}(g)
	}
	wg.Wait()
	var s uint64
	for _, v := range sums {
		s ^= v
	}
	return s
}

// runProbe runs one probe process.
func runProbe(ctx context.Context, exe string) (probeReport, error) {
	var pr probeReport
	cmd := exec.CommandContext(ctx, exe, "probe")
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return pr, err
	}
	if err := json.Unmarshal(bytes.TrimSpace(out), &pr); err != nil {
		return pr, err
	}
	if pr.Sum != probeSum {
		return pr, fmt.Errorf("checksum %d, want %d", pr.Sum, probeSum)
	}
	return pr, nil
}

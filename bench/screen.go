package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"repro/internal/sweep"
)

// screen prints, as a Go list for tracePool, the trace seeds in [lo, hi)
// on which every proxy under every family runs the grid-cold budget
// without the simulator panicking; the seeds that do panic, with the
// panic, go to standard error.
func screen(lo, hi uint64) int {
	var good []string
	for seed := lo; seed < hi; seed++ {
		jobs, err := gridSpec("screen", full.gridInstrs, seed).Jobs()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		var mu sync.Mutex
		var failed []string
		sem := make(chan struct{}, runtime.NumCPU())
		var wg sync.WaitGroup
		for _, j := range jobs {
			wg.Add(1)
			sem <- struct{}{}
			go func(j sweep.Job) {
				defer wg.Done()
				defer func() { <-sem }()
				defer func() {
					if r := recover(); r != nil {
						msg, _, _ := strings.Cut(fmt.Sprint(r), "\n")
						mu.Lock()
						failed = append(failed, fmt.Sprintf("%s on %s: %s", j.Profile.Name, j.Config.RF.Name, msg))
						mu.Unlock()
					}
				}()
				sweep.Simulate(j)
			}(j)
		}
		wg.Wait()
		if len(failed) > 0 {
			fmt.Fprintf(os.Stderr, "seed %d: %s\n", seed, strings.Join(failed, "; "))
			continue
		}
		good = append(good, fmt.Sprint(seed))
	}
	for len(good) > 0 {
		n := min(16, len(good))
		fmt.Printf("\t%s,\n", strings.Join(good[:n], ", "))
		good = good[n:]
	}
	return 0
}

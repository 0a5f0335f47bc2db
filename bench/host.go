package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// warmUpTime is how long every CPU spins before anything is measured. A
// VM's CPUs run at about half speed for the first second or so after the
// process starts; measured work must not land in that window.
const warmUpTime = 2 * time.Second

// warmUp keeps every CPU busy for d.
func warmUp(d time.Duration) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				spin(1_000_000)
			}
		}()
	}
	wg.Wait()
}

// calibrate times a fixed CPU loop (median of five), so a slow host can
// be told apart from a regression.
func calibrate() float64 {
	var xs []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		spin(20_000_000)
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs)
}

// spin runs n rounds of xorshift: fixed CPU work with no memory traffic.
func spin(n int) {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Add(x)
}

// spinSink keeps spin's results live, so the loop cannot be optimized
// away.
var spinSink atomic.Uint64

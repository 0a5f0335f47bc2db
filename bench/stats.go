package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// beyondFloor is how many samples must lie beyond a reported percentile:
// p90 needs at least 100 samples and p99 at least 1000. A tail read off
// fewer samples is one or two outliers, not a percentile.
const beyondFloor = 10

// percentile returns the q-th percentile (0 < q < 100) of xs by the
// nearest-rank rule. It refuses a percentile with fewer than beyondFloor
// samples beyond it; the median needs only one sample.
func percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("p%g of no samples", q)
	}
	if q != 50 {
		if beyond := float64(len(xs)) * (100 - q) / 100; beyond < beyondFloor {
			return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, need %d",
				q, len(xs), beyond, beyondFloor)
		}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// median is the 50th percentile; it never refuses a non-empty sample.
func median(xs []float64) float64 {
	m, _ := percentile(xs, 50)
	return m
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

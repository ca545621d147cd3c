package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// refKernelSeconds is the kernel's time on the reference machine (a quiet
// 2-vCPU VM, where a wiper analysis takes about 0.12 s). Reported times are
// multiplied by speedFactor, so they read as seconds on that machine however
// fast the host runs at the time.
const refKernelSeconds = 0.0060

// speedExponent is the power of the kernel's speed that analysis and set-up
// times follow on the shared host. Between the host's slow and fast periods
// the analyses' wall and CPU times and the set-up CPU time moved by about the
// square of the kernel's time (exponents 2.3-2.5; 1.9-2.2 for wall time
// within a slow period), not in proportion to it: with exponent 1, ten-run
// medians of the same code taken at kernel times of 4.4 and 5.8 ms differed
// by up to 42%; with 2, by up to 12%.
const speedExponent = 2

// speedFactor converts times measured while the kernel took kernelSeconds
// to reference-machine seconds.
func speedFactor(kernelSeconds float64) float64 {
	return math.Pow(refKernelSeconds/kernelSeconds, speedExponent)
}

// calibrate times five runs of a fixed CPU kernel. The kernel touches
// nothing the analyser uses, so its time moves only with the machine's
// speed.
func calibrate() []float64 {
	ts := make([]float64, 5)
	for i := range ts {
		ts[i] = kernelTime(runtime.GOMAXPROCS(0))
	}
	return ts
}

// runKernelSeconds is a run's kernel time: the 10th percentile of every
// kernel timing it took. A low percentile tracks slowdowns that last the
// whole run while ignoring a stall that happens to hit a few timings; a
// run of gen40 takes only about 30 of them.
func runKernelSeconds(ts []float64) float64 { return percentile(ts, 10) }

// kernelTime runs one copy of the kernel per worker in parallel and
// returns the wall seconds until all finish.
func kernelTime(workers int) float64 {
	var wg sync.WaitGroup
	sinks := make([]uint64, workers)
	t0 := time.Now()
	for w := range sinks {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sinks[w] = kernel(uint64(w) + 1)
		}(w)
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// kernel mixes integers through a table that fits in L2.
func kernel(x uint64) uint64 {
	var table [1 << 15]uint64 // 256 KiB
	for i := range table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[i] = x
	}
	var acc uint64
	for i := 0; i < 1<<21; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += table[x&(1<<15-1)] ^ x
	}
	return acc
}

package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the middle two for an
// even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile of xs (0 for none).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[max(rank, 1)-1]
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 {
	return float64(t.Sec) + float64(t.Usec)/1e6
}

// timed runs f and returns its wall and CPU seconds.
func timed(f func()) (wall, cpu float64) {
	c0, t0 := cpuSeconds(), time.Now()
	f()
	return time.Since(t0).Seconds(), cpuSeconds() - c0
}

// memWatch samples the Go runtime's resident memory — memory mapped from
// the OS and not returned to it — every few milliseconds, keeping the peak.
type memWatch struct {
	stop chan struct{}
	done chan float64
}

var memSamples = []metrics.Sample{
	{Name: "/memory/classes/total:bytes"},
	{Name: "/memory/classes/heap/released:bytes"},
}

func residentMB() float64 {
	s := append([]metrics.Sample(nil), memSamples...)
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

func watchMemory() *memWatch {
	w := &memWatch{stop: make(chan struct{}), done: make(chan float64)}
	go func() {
		peak := residentMB()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = max(peak, residentMB())
			case <-w.stop:
				w.done <- max(peak, residentMB())
				return
			}
		}
	}()
	return w
}

// peak stops the watch and returns the peak resident MiB it saw.
func (w *memWatch) peak() float64 {
	close(w.stop)
	return <-w.done
}

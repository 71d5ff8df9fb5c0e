package main

import (
	"bufio"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// subSeed derives an independent seed for one generated input from the
// workload seed, so that one --seed drives every input and each input
// still has a stream of its own.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := uint64(seed) ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return int64((x ^ (x >> 31)) >> 1)
}

// percentile returns the nearest-rank q-quantile of sorted.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, 0 when b is 0: a layer that did no work reports 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeSample is the runtime/metrics view the benchmark takes at the
// edges of a timed phase.
type runtimeSample struct {
	allocs, allocBytes, gcCycles uint64
}

var runtimeNames = []string{"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles}
}

// heapWatch samples the live heap (as marked by the last GC) until stopped
// and keeps the peak.
type heapWatch struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	sample := func() {
		metrics.Read(s)
		h.peak = max(h.peak, s[0].Value.Uint64())
	}
	sample()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-h.stop:
				sample()
				return
			}
		}
	}()
	return h
}

// peakMB stops the watch and returns the peak live heap in MiB.
func (h *heapWatch) peakMB() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / (1 << 20)
}

// envHeader describes the machine and build a result came from.
func envHeader(workload string, seed int64) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				commit += "-dirty"
			}
		}
	}
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     commit,
		"workload":   workload,
		"seed":       seed,
	}
}

// cpuModel reads the CPU model name the kernel reports, "unknown" where it
// does not.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

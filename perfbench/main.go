// Command perfbench is the repository's end-to-end benchmark. One process
// builds synthetic archives with the public pipeline, serves them from an
// in-process catalog on a 127.0.0.1 ephemeral port, loads it over real
// loopback TCP with closed-loop clients, and runs the paper's
// encode → approximate store → decode round trip. Every operation is
// checked against a reference computed at set-up.
//
//	perfbench --workload hot_zipf|cold_scan|pipeline_roundtrip --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced for half the time each and prints
// the per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. README.md lists
// the workloads, the metrics and what each layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, from --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"req_per_s", "1/s"},
	{"frames_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"success_ratio", "ratio"},
	{"psnr_db", "dB"},
	{"cells_per_pixel", "cells/px"},
	{"max_heap_mb", "MiB"},
}

// perLayer are the single-layer metrics, from --trace 1. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"serve.handler_us", "us"},
	{"serve.socket_us", "us"},
	{"serve.materialize_us", "us"},
	{"serve.requests", "count"},
	{"serve.errors", "count"},
	{"serve.degraded", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.loads_per_req", "ratio"},
	{"cache.evictions_per_req", "ratio"},
	{"prefetch.issued", "count"},
	{"prefetch.useful_ratio", "ratio"},
	{"prefetch.wasted", "count"},
	{"store.backend.reads_per_chunk", "count/chunk"},
	{"store.backend.bytes_per_chunk", "bytes/chunk"},
	{"store.backend.read_us", "us"},
	{"store.read_chunk_us", "us"},
	{"store.read_retries", "count/chunk"},
	{"store.crc_failures", "count/chunk"},
	{"store.degraded_streams", "count/chunk"},
	{"store.retry_wait_us", "us"},
	{"codec.decode_us_per_chunk", "us"},
	{"codec.encode_us_per_frame", "us"},
	{"codec.resync", "count/chunk"},
	{"y4m.render_us_per_chunk", "us"},
	{"core.analyze_us_per_frame", "us"},
	{"core.partition_us_per_frame", "us"},
	{"store.footprint_us_per_frame", "us"},
	{"store.inject_us_per_frame", "us"},
	{"store.residual_flips", "count/chunk"},
	{"store.write_bytes", "bytes"},
	{"store.write_us", "us"},
	{"quality.measure_us_per_frame", "us"},
	{"chunk.stage_parallelism", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_ratio", "ratio"},
}

var workloads = []string{"hot_zipf", "cold_scan", "pipeline_roundtrip"}

// result is one run's outcome.
type result struct {
	attempted, failed int64
	metrics           map[string]float64
	samples           map[string]int64 // sample count behind a metric, where it has one
	notes             []string         // extra report lines
}

func (r *result) set(name string, v float64, n int64) {
	r.metrics[name] = v
	if n > 0 {
		r.samples[name] = n
	}
}

func newResult(attempted, failed int64) *result {
	return &result{attempted: attempted, failed: failed, metrics: map[string]float64{}, samples: map[string]int64{}}
}

// report writes the human-readable lines and then the JSON result line.
func (r *result) report(w io.Writer, defs []metricDef) error {
	out := map[string]any{}
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		line := fmt.Sprintf("%-32s %14.6f %s", d.name, v, d.unit)
		if n := r.samples[d.name]; n > 0 {
			line += fmt.Sprintf("  n=%d", n)
		}
		fmt.Fprintln(w, line)
		out[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	fail := ratio(float64(r.failed), float64(r.attempted))
	fmt.Fprintf(w, "%-32s %14.6f ratio  n=%d\n", "fail_ratio", fail, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	b, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// phase is what every timed phase measures, whatever the workload.
type phase struct {
	elapsed    time.Duration
	lat        []time.Duration
	ok, failed int64
	frames     int64 // frames of correct operations
	psnrSum    float64
	heapMB     float64
	rt         runtimeSample
}

// phaseClock brackets a timed phase: wall time, runtime deltas, peak heap.
type phaseClock struct {
	start time.Time
	rt    runtimeSample
	heap  *heapWatch
}

func startPhase() phaseClock {
	rt := readRuntime()
	heap := watchHeap()
	return phaseClock{start: time.Now(), rt: rt, heap: heap}
}

func (c phaseClock) stop(ph *phase) {
	ph.elapsed = time.Since(c.start)
	ph.heapMB = c.heap.peakMB()
	ph.rt = readRuntime().sub(c.rt)
}

// endToEndResult turns an untraced phase into the end-to-end metrics.
func endToEndResult(ph phase, setups []float64, cpp float64, cppN int64) *result {
	r := newResult(ph.ok+ph.failed, ph.failed)
	secs := ph.elapsed.Seconds()
	r.set("setup_s", median(setups), int64(len(setups)))
	r.set("req_per_s", float64(ph.ok)/secs, ph.ok)
	r.set("frames_per_s", float64(ph.frames)/secs, ph.ok)
	slices.Sort(ph.lat)
	n := int64(len(ph.lat))
	r.set("latency_p50_ms", ms(percentile(ph.lat, 0.50)), n)
	r.set("latency_p99_ms", ms(percentile(ph.lat, 0.99)), n)
	r.set("success_ratio", ratio(float64(ph.ok), float64(ph.ok+ph.failed)), ph.ok+ph.failed)
	r.set("psnr_db", ratio(ph.psnrSum, float64(ph.ok)), ph.ok)
	r.set("cells_per_pixel", cpp, cppN)
	r.set("max_heap_mb", ph.heapMB, 0)
	return r
}

// runtimeLayers sets the runtime metrics of an untraced phase.
func runtimeLayers(m map[string]float64, rt runtimeSample, ops int64) {
	m["runtime.allocs_per_op"] = ratio(float64(rt.allocs), float64(ops))
	m["runtime.alloc_bytes_per_op"] = ratio(float64(rt.allocBytes), float64(ops))
	m["runtime.gc_cycles"] = float64(rt.gcCycles)
}

// run executes one workload.
func run(ctx context.Context, cfg config, workload string, seed int64, dur time.Duration, trace bool) (*result, error) {
	switch workload {
	case "hot_zipf", "cold_scan":
		return runServe(ctx, cfg, workload, seed, dur, trace)
	case "pipeline_roundtrip":
		return runPipeline(ctx, cfg, seed, dur, trace)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
}

// setupTimes runs setup cfg.Setups times (once when traced), keeps the
// last environment and returns every set-up's wall time in seconds.
func setupTimes[E any](n int, setup func() (E, error), discard func(E)) (E, []float64, error) {
	var env E
	var times []float64
	for k := 0; k < n; k++ {
		if k > 0 {
			discard(env)
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			var zero E
			return zero, nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	return env, times, nil
}

func runServe(ctx context.Context, cfg config, workload string, seed int64, dur time.Duration, trace bool) (*result, error) {
	n := cfg.Setups
	if trace {
		n = 1
	}
	env, times, err := setupTimes(n, func() (*serveEnv, error) { return setupServe(ctx, cfg, workload, seed) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	if !trace {
		ph, err := env.measure(ctx, cfg, workload, seed, dur)
		if err != nil {
			return nil, err
		}
		var cpp float64
		for _, t := range env.tenants {
			cpp += t.stats.CellsPerPixel / float64(len(env.tenants))
		}
		return endToEndResult(ph.phase, times, cpp, int64(len(env.tenants))), nil
	}

	a, err := env.measure(ctx, cfg, workload, seed, dur/2)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	te, err := newServeEnv(ctx, cfg, workload, env.tenants, env.refs, tr)
	if err != nil {
		return nil, err
	}
	defer te.close()
	b, err := te.measure(ctx, cfg, workload, seed, dur/2)
	if err != nil {
		return nil, err
	}
	r := newResult(a.ok+a.failed+b.ok+b.failed, a.failed+b.failed)
	serveLayers(te, b, r.metrics)
	runtimeLayers(r.metrics, a.rt, a.ok+a.failed)
	r.metrics["trace.overhead_ratio"] = ratio(float64(b.ok)/b.elapsed.Seconds(), float64(a.ok)/a.elapsed.Seconds())
	r.samples["serve.handler_us"] = b.ok + b.failed
	r.samples["codec.decode_us_per_chunk"] = b.replays
	m := r.metrics
	if mat := m["serve.materialize_us"]; b.replays > 0 && mat > 0 {
		layers := m["store.backend.read_us"] + m["store.read_chunk_us"] + m["codec.decode_us_per_chunk"] + m["y4m.render_us_per_chunk"]
		r.notes = append(r.notes, fmt.Sprintf("# replayed layers cover %.3f of serve.materialize_us (%.1f of %.1f us, %d replays)", layers/mat, layers, mat, b.replays))
	}
	return r, writeTrace(cfg, tr, workload, seed, r)
}

func runPipeline(ctx context.Context, cfg config, seed int64, dur time.Duration, trace bool) (*result, error) {
	n := cfg.Setups
	if trace {
		n = 1
	}
	env, times, err := setupTimes(n, func() (*pipeEnv, error) { return setupPipeline(ctx, cfg, seed) }, func(*pipeEnv) {})
	if err != nil {
		return nil, err
	}
	if !trace {
		ph, err := env.measure(ctx, dur, nil)
		if err != nil {
			return nil, err
		}
		return endToEndResult(ph.phase, times, env.ref.cpp, ph.iterations), nil
	}

	a, err := env.measure(ctx, dur/2, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	b, err := env.measure(ctx, dur/2, &spanLog{tr: tr})
	if err != nil {
		return nil, err
	}
	r := newResult(a.ok+a.failed+b.ok+b.failed, a.failed+b.failed)
	pipelineLayers(tr, b, r.metrics)
	runtimeLayers(r.metrics, a.rt, a.ok+a.failed)
	r.metrics["trace.overhead_ratio"] = ratio(float64(b.frames)/b.elapsed.Seconds(), float64(a.frames)/a.elapsed.Seconds())
	r.samples["codec.decode_us_per_chunk"] = b.chunkRounds
	return r, writeTrace(cfg, tr, "pipeline_roundtrip", seed, r)
}

// writeTrace stores the run's spans and notes where they went.
func writeTrace(cfg config, tr *tracer, workload string, seed int64, r *result) error {
	path, err := tr.write(cfg.TraceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	r.notes = append(r.notes, "# spans written to "+path)
	return nil
}

func main() {
	workload := flag.String("workload", "", "workload: hot_zipf, cold_scan or pipeline_roundtrip")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	env, _ := json.Marshal(envHeader(*workload, *seed))
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%d\n# env %s\n", *workload, *seed, *seconds, *trace, env)
	cfg := defaultConfig()
	cfg.TraceDir = filepath.Join(".bench_build", "traces")
	res, err := run(ctx, cfg, *workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err == nil {
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		err = res.report(os.Stdout, defs)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// smallConfig shrinks every workload so that a run takes well under a
// second of set-up, race detector included.
func smallConfig(t *testing.T) config {
	cfg := defaultConfig()
	cfg.W, cfg.H = 64, 48
	cfg.TenantChunks = 3
	cfg.PipelineChunks = 2
	cfg.Setups = 2
	// Eight shards of 48 KiB hold one 37 KB rendered chunk each.
	cfg.ColdCacheBytes = 8 * 48 << 10
	cfg.CorruptRate = 0.5
	cfg.TraceDir = t.TempDir()
	return cfg
}

// benchmarkFile is the part of BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestMetricsMatchBenchmarkFile pins the metric lists to BENCHMARK.json.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s %d: %s %s here, %s %s in BENCHMARK.json", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, bf.EndToEnd)
	same("per_layer", perLayer, bf.PerLayer)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(bf.Workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: %s here, %s in BENCHMARK.json", i, workloads[i], w.Name)
		}
	}
}

// TestWorkloadsReportEveryMetric runs each workload briefly, untraced and
// traced, and checks that every metric is printed with its unit, that the
// last line is the result object, and that nothing failed.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	cfg := smallConfig(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(context.Background(), cfg, w, 7, 300*time.Millisecond, trace)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			var out bytes.Buffer
			if err := res.report(&out, defs); err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   *bool
				Attempted *int64
				Failed    *int64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w, err)
			}
			if last.Correct == nil || !*last.Correct || *last.Failed != 0 || *last.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%v failed=%v", w, trace, last.Correct, last.Attempted, last.Failed)
			}
			if len(last.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(last.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := last.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q, want %q", w, trace, d.name, m.Unit, d.unit)
				}
				if !hasLine(lines, d.name, d.unit) {
					t.Errorf("%s trace=%v: no report line for %s in %s", w, trace, d.name, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if !hasLine(lines, "fail_ratio", "ratio") || !strings.Contains(out.String(), "fail_ratio                             0.000000") {
				t.Errorf("%s trace=%v: fail_ratio is not 0:\n%s", w, trace, out.String())
			}
		}
	}
}

func hasLine(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}

// TestCorruptReferenceFails checks that the per-operation check has teeth:
// a reference altered after set-up turns matching responses into failures.
func TestCorruptReferenceFails(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig(t)
	for _, w := range []string{"hot_zipf", "cold_scan"} {
		env, err := setupServe(ctx, cfg, w, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := range env.refs[0] {
			env.refs[0][i].crc ^= 1
		}
		ph, err := env.measure(ctx, cfg, w, 7, 300*time.Millisecond)
		env.close()
		if err != nil {
			t.Fatal(err)
		}
		if ph.failed == 0 || ph.ok == 0 {
			t.Errorf("%s: %d ok, %d failed; want failures on the altered tenant only", w, ph.ok, ph.failed)
		}
	}

	env, err := setupPipeline(ctx, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	env.ref.chunks[0].psnr++
	ph, err := env.measure(ctx, 300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed != ph.iterations || ph.ok != ph.iterations*int64(cfg.PipelineChunks-1) {
		t.Errorf("pipeline: %d ok, %d failed over %d iterations; want chunk 0 to fail each time", ph.ok, ph.failed, ph.iterations)
	}
}

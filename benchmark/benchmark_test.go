package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The self-test runs every workload at a tenth of the benchmark's scale for a
// pass or two: it checks the wiring and each workload's intent, not timings.
const testScale = 0.02

func testConfig(t *testing.T, name string, seed int64) config {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return config{w: w, seed: seed, scale: testScale, passes: 4, outDir: t.TempDir()}
		}
	}
	t.Fatalf("no workload %q", name)
	return config{}
}

// TestNamesMatchBenchmarkJSON keeps the program's metric and workload names
// from drifting away from the contract file.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []metric, defs []metricDef) {
		var got []metric
		for _, d := range defs {
			got = append(got, metric{d.name, d.unit})
		}
		if !reflect.DeepEqual(declared, got) {
			t.Errorf("%s: BENCHMARK.json declares %v, the program reports %v", kind, declared, got)
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
}

// TestWorkloads runs each workload's traced mode (an untraced system, then a
// traced one, at one pass each) and checks that every declared metric is
// reported, that nothing fails, and that the workload stresses what it claims.
func TestWorkloads(t *testing.T) {
	intent := map[string]func(t *testing.T, m map[string]float64){
		"dash_warm": func(t *testing.T, m map[string]float64) {
			if m["plan_cache_hit_ratio"] < 0.95 {
				t.Errorf("plan_cache_hit_ratio %v, want >= 0.95", m["plan_cache_hit_ratio"])
			}
			if m["catalog_version_bumps"] != 0 {
				t.Errorf("catalog_version_bumps %v, want 0", m["catalog_version_bumps"])
			}
		},
		"adhoc_cold": func(t *testing.T, m map[string]float64) {
			if m["plan_cache_hit_ratio"] > 0.05 {
				t.Errorf("plan_cache_hit_ratio %v, want <= 0.05", m["plan_cache_hit_ratio"])
			}
		},
		"exact_scan": func(t *testing.T, m map[string]float64) {
			if m["backend_calls_per_query"] != 1 || m["backend_calls.query"] != 1 {
				t.Errorf("BYPASS ops should cross the seam once, through Query: %v calls, %v Query", m["backend_calls_per_query"], m["backend_calls.query"])
			}
		},
		"disk_cold": func(t *testing.T, m map[string]float64) {
			if r := m["chunk_cache_hit_ratio"]; r <= 0.02 || r >= 0.9 {
				t.Errorf("chunk_cache_hit_ratio %v, want strictly inside (0.02, 0.9)", r)
			}
			if m["chunk_evictions"] <= 0 || m["disk_mb"] <= 0 || m["chunk_read_us"] <= 0 {
				t.Errorf("storage did no work: evictions %v, disk_mb %v, chunk_read_us %v", m["chunk_evictions"], m["disk_mb"], m["chunk_read_us"])
			}
		},
		"ingest_mix": func(t *testing.T, m map[string]float64) {
			if m["catalog_version_bumps"] <= 0 || m["ingest_rows_per_s"] <= 0 {
				t.Errorf("appends did not happen: %v version bumps, %v rows/s", m["catalog_version_bumps"], m["ingest_rows_per_s"])
			}
		},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := testConfig(t, w.name, 1)
			res, err := measureTraced(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 {
				t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.failures)
			}
			for _, d := range endToEnd {
				if v, ok := res.metrics[d.name]; !ok || v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want a value above 0", d.name, v)
				}
			}
			for _, d := range perLayer {
				if _, ok := res.metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s is not reported", d.name)
				}
			}
			intent[w.name](t, res.metrics)
			checkTrace(t, filepath.Join(cfg.outDir, "trace.jsonl"), res.ops)
		})
	}
}

// checkTrace reads trace.jsonl back: one client root per op, every child
// inside its parent, and no root shorter than its children together.
func checkTrace(t *testing.T, path string, ops int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, sp)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	roots := 0
	childNs := map[int]int64{}
	for i, sp := range spans {
		if sp.ID != i || sp.End < sp.Start {
			t.Fatalf("span %d is malformed: %+v", i, sp)
		}
		if sp.Layer == "client" {
			roots++
		}
		if sp.Parent >= 0 {
			p := spans[sp.Parent]
			if p.Op != sp.Op || sp.Start < p.Start || sp.End > p.End {
				t.Fatalf("span %+v is not nested inside its parent %+v", sp, p)
			}
			childNs[sp.Parent] += sp.End - sp.Start
		}
	}
	if roots != ops {
		t.Errorf("%d client roots for %d ops", roots, ops)
	}
	for id, ns := range childNs {
		if self := spans[id].End - spans[id].Start - ns; self < 0 {
			t.Errorf("span %d has negative self time %d ns", id, self)
		}
	}
}

// TestSeedDrivesOps checks that a seed fixes the op list and that another
// seed redraws adhoc_cold's literals.
func TestSeedDrivesOps(t *testing.T) {
	a := testConfig(t, "adhoc_cold", 7)
	_, opsA, err := buildOps(a)
	if err != nil {
		t.Fatal(err)
	}
	_, again, err := buildOps(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(opsA, again) {
		t.Fatal("the same seed gave two different op lists")
	}
	b := a
	b.seed = 8
	_, opsB, err := buildOps(b)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, pass := range opsA {
		for _, o := range pass {
			seen[o.sql] = true
		}
	}
	if len(seen) < 4*33*95/100 {
		t.Errorf("only %d distinct statements in %d ops: literals repeat", len(seen), 4*33)
	}
	for _, pass := range opsB {
		for _, o := range pass {
			if seen[o.sql] {
				t.Fatalf("seed 8 repeats a statement of seed 7: %s", o.sql)
			}
		}
	}
}

package bench

import (
	"io"
	"strings"
	"testing"
)

// The experiments at QuickConfig scale double as integration tests: each
// must run end-to-end and produce paper-shaped results.

func TestSpeedupExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var sb strings.Builder
	results, err := SpeedupExperiment(&sb, QuickConfig(), "generic")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 33 {
		t.Fatalf("ran %d queries, want 33", len(results))
	}
	approximated, fast := 0, 0
	for _, r := range results {
		if r.Approximate {
			approximated++
			if r.Speedup > 2 {
				fast++
			}
		}
	}
	// The paper approximates most queries and speeds up the large scans.
	if approximated < 15 {
		t.Errorf("only %d/33 queries approximated", approximated)
	}
	if fast < 10 {
		t.Errorf("only %d approximated queries exceeded 2x speedup", fast)
	}
	out := sb.String()
	for _, want := range []string{"tq-1", "iq-15", "average speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestCorrectnessExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func() *CoverageReport {
		rep, err := CorrectnessExperiment(io.Discard, QuickConfig(), 2, "")
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep, again := run(), run()
	for _, rows := range [][]CoverageRow{rep.ByMethod, rep.ByKind, rep.BySamples} {
		for _, r := range rows {
			if r.Method == "variational" && r.Cells == 0 {
				t.Errorf("variational roll-up %+v scored no cells", r)
			}
		}
	}
	baseline := map[string]bool{}
	for _, r := range rep.Rows {
		if r.Method != "variational" {
			baseline[r.Method] = true
			if r.Kind != "count" && r.Kind != "sum" && r.Kind != "avg" {
				t.Errorf("baseline row %+v: the baselines answer count/sum/avg only", r)
			}
		}
	}
	if !baseline["traditional"] || !baseline["bootstrap"] {
		t.Errorf("baseline methods scored: %v", baseline)
	}
	if len(rep.Rows) != len(again.Rows) {
		t.Fatalf("rows %d vs %d across identical runs", len(rep.Rows), len(again.Rows))
	}
	for i, r := range rep.Rows {
		a := again.Rows[i]
		if r.Cells != a.Cells || r.Covered != a.Covered || r.Missing != a.Missing {
			t.Errorf("same seeds, different counts: %+v vs %+v", r, a)
		}
	}
	for _, r := range rep.ByMethod {
		// The floor benchmark/loop.go applies after appends; 0.95 waits for
		// the estimator fixes.
		if r.Method == "variational" && r.Coverage < 0.80 {
			t.Errorf("variational coverage %.3f, want >= 0.80", r.Coverage)
		}
	}
}

func TestProgressiveExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickConfig()
	cfg.BlockRows = 64
	rep, err := ProgressiveExperiment(io.Discard, cfg, "", []float64{0, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2*33 {
		t.Fatalf("ran %d (query, target) pairs, want %d", len(rep.Results), 2*33)
	}
	progressive := 0
	for _, r := range rep.Results {
		if !r.Progressive {
			continue
		}
		progressive++
		if r.BlocksTotal < 1 || r.BlocksScanned < 1 || r.BlocksScanned > r.BlocksTotal {
			t.Fatalf("%s target %g: blocks %d/%d", r.Query, r.Target, r.BlocksScanned, r.BlocksTotal)
		}
		// targetRelErr=0 must scan the whole sample in one shot.
		if r.Target == 0 && r.BlocksScanned != r.BlocksTotal {
			t.Fatalf("%s: target 0 stopped early (%d/%d)", r.Query, r.BlocksScanned, r.BlocksTotal)
		}
		if r.EarlyStop && r.EstRelErr > r.Target {
			t.Fatalf("%s: early stop with estimated error %v above target %v",
				r.Query, r.EstRelErr, r.Target)
		}
	}
	if progressive == 0 {
		t.Fatal("no query took the progressive path")
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
)

// benchmarkJSON is the part of BENCHMARK.json the repeat check reads.
type benchmarkJSON struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// exactEndToEnd and exactPerLayer must read the same on two runs of one seed:
// they are counts, or computed from the answers alone.
var (
	exactEndToEnd = []string{"rel_err_median", "ci_coverage"}
	exactPerLayer = []string{"rows_scanned_per_query", "rows_scanned_per_result_row", "backend_calls_per_query",
		"plan_cache_hit_ratio", "catalog_version_bumps", "rewritten_sql_bytes_per_query", "sample_rows", "disk_mb"}
)

var digestRE = regexp.MustCompile(`result_digest ([0-9a-f]{64})`)

// child runs one workload in a fresh process of this executable.
func child(name string, seed int64, seconds, trace int, outDir string) (resultLine, string, error) {
	var line resultLine
	self, err := os.Executable()
	if err != nil {
		return line, "", err
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace), "--out", outDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return line, "", fmt.Errorf("seed %d trace %d: %w", seed, trace, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, "", fmt.Errorf("seed %d: last line is not a result: %w", seed, err)
	}
	m := digestRE.FindSubmatch(out)
	if m == nil {
		return line, "", fmt.Errorf("seed %d: no result_digest in the output", seed)
	}
	return line, string(m[1]), nil
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4), which the
// acceptance rule is written in.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// repeatCheck runs n seeds (seed, seed+1, ...) in fresh processes and holds
// each end-to-end metric's spread — interquartile range over median — to its
// bound in BENCHMARK.json, read from the working directory. It then runs the
// first seed again, untraced and traced twice, and requires the digest and
// the exact metrics to repeat.
func repeatCheck(name string, seed int64, seconds, n int, outDir string) error {
	if n < 3 {
		return fmt.Errorf("--repeat needs at least 3 runs")
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run the repeat check from the repository root: %w", err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}

	var runs []resultLine
	var firstDigest string
	for i := 0; i < n; i++ {
		r, digest, err := child(name, seed+int64(i), seconds, 0, outDir)
		if err != nil {
			return err
		}
		if i == 0 {
			firstDigest = digest
		}
		runs = append(runs, r)
		fmt.Printf("seed %d: %d/%d failed\n", seed+int64(i), r.Failed, r.Attempted)
	}
	bad := 0
	fmt.Printf("%-20s %12s %12s %12s %8s %6s\n", "metric", "min", "median", "max", "spread", "bound")
	for _, e := range bj.EndToEnd {
		vals := make([]float64, n)
		for i, r := range runs {
			vals[i] = r.Metrics[e.Name].Value
		}
		q1, q2, q3 := quartiles(vals)
		sort.Float64s(vals)
		spread := (q3 - q1) / q2
		mark := ""
		if spread > e.Bound && e.Name != "setup_s" {
			mark = "  OVER BOUND"
			bad++
		}
		fmt.Printf("%-20s %12.6g %12.6g %12.6g %7.2f%% %5.0f%%%s\n", e.Name, vals[0], q2, vals[n-1], 100*spread, 100*e.Bound, mark)
	}

	again, digest, err := child(name, seed, seconds, 0, outDir)
	if err != nil {
		return err
	}
	if digest != firstDigest || again.Attempted != runs[0].Attempted {
		fmt.Println("seed", seed, "did not repeat: digest or op count differ")
		bad++
	}
	for _, m := range exactEndToEnd {
		if again.Metrics[m] != runs[0].Metrics[m] {
			fmt.Printf("%s did not repeat at seed %d: %v then %v\n", m, seed, runs[0].Metrics[m].Value, again.Metrics[m].Value)
			bad++
		}
	}
	t1, _, err := child(name, seed, seconds, 1, outDir)
	if err != nil {
		return err
	}
	t2, _, err := child(name, seed, seconds, 1, outDir)
	if err != nil {
		return err
	}
	for _, m := range exactPerLayer {
		if t1.Metrics[m] != t2.Metrics[m] {
			fmt.Printf("%s did not repeat at seed %d: %v then %v\n", m, seed, t1.Metrics[m].Value, t2.Metrics[m].Value)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d repeatability checks failed", bad)
	}
	fmt.Println("repeat check passed: spreads within bounds, exact metrics identical")
	return nil
}

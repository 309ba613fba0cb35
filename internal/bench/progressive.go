package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	verdictdb "verdictdb"
	"verdictdb/internal/drivers"
	"verdictdb/internal/workload"
)

// The progressive experiment measures time-to-accuracy over the mixed
// TPC-H/Insta workload: each query runs once per target relative error with
// accuracy-driven progressive execution, recording how many scramble blocks
// (and rows) the executor scanned before the variational error estimate met
// the target, plus the per-prefix curve. The interesting outcome is early
// termination: loose targets should answer grouped-aggregate queries from a
// strict prefix of the sample, and targetRelErr=0 must match Conn.Query.

// ProgressivePoint is one block prefix on a query's time-to-accuracy curve.
type ProgressivePoint struct {
	Blocks      int     `json:"blocks"`
	RowsScanned int64   `json:"rows_scanned"`
	ElapsedMs   float64 `json:"elapsed_ms"`
	EstRelErr   float64 `json:"est_rel_err"`
}

// ProgressiveResult is one (query, target) measurement.
type ProgressiveResult struct {
	Dataset       string             `json:"dataset"`
	Query         string             `json:"query"`
	Target        float64            `json:"target"`
	Progressive   bool               `json:"progressive"`
	EarlyStop     bool               `json:"early_stop"`
	BlocksScanned int                `json:"blocks_scanned"`
	BlocksTotal   int                `json:"blocks_total"`
	RowsScanned   int64              `json:"rows_scanned"`
	FullRows      int64              `json:"full_rows_scanned"`
	ElapsedMs     float64            `json:"elapsed_ms"`
	EstRelErr     float64            `json:"est_rel_err"`
	TrueRelErr    float64            `json:"true_rel_err"`
	Curve         []ProgressivePoint `json:"curve,omitempty"`
}

// ProgressiveReport is the BENCH_progressive.json payload.
type ProgressiveReport struct {
	Timestamp  string              `json:"timestamp"`
	TPCHScale  float64             `json:"tpch_scale"`
	InstaScale float64             `json:"insta_scale"`
	BlockRows  int64               `json:"block_rows"`
	Targets    []float64           `json:"targets"`
	Results    []ProgressiveResult `json:"results"`
}

// finiteRelErr maps MaxRelativeError's "accuracy unknown" NaN to 0 for the
// JSON reports (encoding/json rejects NaN).
func finiteRelErr(a *verdictdb.Answer) float64 {
	if re := a.MaxRelativeError(); !math.IsNaN(re) {
		return re
	}
	return 0
}

// ProgressiveExperiment runs the block-prefix time-to-accuracy sweep and
// writes the report to outPath ("" skips the file).
func ProgressiveExperiment(w io.Writer, cfg Config, outPath string, targets []float64) (*ProgressiveReport, error) {
	if len(targets) == 0 {
		targets = []float64{0.01, 0.02, 0.05, 0.10}
	}
	if cfg.BlockRows == 0 {
		cfg.BlockRows = 256
	}
	rep := &ProgressiveReport{
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		TPCHScale:  cfg.TPCHScale,
		InstaScale: cfg.InstaScale,
		BlockRows:  cfg.BlockRows,
		Targets:    targets,
	}

	type dataset struct {
		name    string
		env     *Env
		queries []workload.Query
	}
	tpchEnv, err := NewTPCHEnv(cfg, drivers.NewGeneric)
	if err != nil {
		return nil, err
	}
	instaEnv, err := NewInstaEnv(cfg, drivers.NewGeneric)
	if err != nil {
		return nil, err
	}
	sets := []dataset{
		{"tpch", tpchEnv, workload.TPCHQueries},
		{"insta", instaEnv, workload.InstaQueries},
	}

	fmt.Fprintf(w, "## Progressive execution: time-to-accuracy over block-partitioned scrambles\n")
	fmt.Fprintf(w, "block size %d rows; targets %v\n", cfg.BlockRows, targets)
	fmt.Fprintf(w, "%-7s %-7s %7s %14s %12s %10s %10s\n",
		"query", "target", "blocks", "rows(full)", "elapsed", "est-err", "true-err")

	for _, ds := range sets {
		for _, q := range ds.queries {
			exact, err := ds.env.Conn.Query("bypass " + q.SQL)
			if err != nil {
				return nil, fmt.Errorf("%s exact: %w", q.ID, err)
			}
			// Full-sample reference: rows scanned with no early stopping.
			full, err := ds.env.Conn.QueryWithAccuracy(q.SQL, 0)
			if err != nil {
				return nil, fmt.Errorf("%s full: %w", q.ID, err)
			}
			for _, target := range targets {
				var curve []ProgressivePoint
				a, err := ds.env.Conn.QueryProgressive(q.SQL, target,
					func(u verdictdb.ProgressiveUpdate) bool {
						curve = append(curve, ProgressivePoint{
							Blocks:      u.BlocksScanned,
							RowsScanned: u.Answer.RowsScanned,
							ElapsedMs:   float64(u.Answer.ElapsedNanos) / 1e6,
							EstRelErr:   finiteRelErr(u.Answer),
						})
						return true
					})
				if err != nil {
					return nil, fmt.Errorf("%s target %g: %w", q.ID, target, err)
				}
				m, err := matchAnswers(q, exact, a)
				if err != nil {
					return nil, err
				}
				res := ProgressiveResult{
					Dataset:       ds.name,
					Query:         q.ID,
					Target:        target,
					Progressive:   a.BlocksTotal > 0,
					EarlyStop:     a.BlocksTotal > 0 && a.BlocksScanned < a.BlocksTotal,
					BlocksScanned: a.BlocksScanned,
					BlocksTotal:   a.BlocksTotal,
					RowsScanned:   a.RowsScanned,
					FullRows:      full.RowsScanned,
					ElapsedMs:     float64(a.ElapsedNanos) / 1e6,
					EstRelErr:     a.MaxRelativeError(),
					TrueRelErr:    m.maxRelErr(),
					Curve:         curve,
				}
				rep.Results = append(rep.Results, res)
				if res.Progressive {
					fmt.Fprintf(w, "%-7s %-7.3g %3d/%-3d %6d/%-7d %10.2fms %9.3f%% %9.3f%%\n",
						q.ID, target, res.BlocksScanned, res.BlocksTotal,
						res.RowsScanned, res.FullRows, res.ElapsedMs,
						100*res.EstRelErr, 100*res.TrueRelErr)
				}
			}
		}
	}

	// Summary: how often loose targets terminate early.
	fmt.Fprintf(w, "\n%-8s %12s %14s %16s\n", "target", "progressive", "early-stopped", "mean blocks frac")
	for _, target := range targets {
		prog, early := 0, 0
		fracSum := 0.0
		for _, r := range rep.Results {
			if r.Target != target || !r.Progressive {
				continue
			}
			prog++
			if r.EarlyStop {
				early++
			}
			fracSum += float64(r.BlocksScanned) / float64(r.BlocksTotal)
		}
		if prog == 0 {
			continue
		}
		fmt.Fprintf(w, "%-8.3g %12d %14d %15.1f%%\n",
			target, prog, early, 100*fracSum/float64(prog))
	}

	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "wrote %s\n", outPath)
	}
	return rep, nil
}

package sampling

import (
	"context"
	"fmt"
	"math"
	"strings"

	"verdictdb/internal/meta"
	"verdictdb/internal/sqlparser"
)

// AppendBatch implements the incremental sample maintenance of Appendix D:
// when a new batch of rows (already loaded into batchTable, same schema as
// the base table) is appended to the base table, the sample is extended by
// sampling the batch with the same parameters.
//
//   - uniform samples Bernoulli-sample the batch with the stored tau;
//   - hashed samples apply the same hash predicate (so universe membership
//     stays consistent);
//   - stratified samples reuse each existing stratum's recorded inclusion
//     probability (read back from the sample's verdict_prob column); rows of
//     strata never seen before are taken whole (probability 1), matching the
//     paper's "new sampling probabilities are generated" rule.
//
// The cost is O(batch): the base and sample tables are touched only by
// LIMIT 0 schema probes, which read no rows, and every count comes from the
// staged delta. The stratified form also reads the sample once, for each
// stratum's recorded probability. (TestAppendBatchCostIndependentOfBaseSize
// pins this for a 20k- and a 200k-row base table.)
//
// The caller is responsible for also inserting the batch into the base
// table; AppendBatch updates only the sample and its metadata. Like sample
// creation, the multi-statement append (insert + count + register) is
// serialized by the builder's mutex.
func (b *Builder) AppendBatch(si meta.SampleInfo, batchTable string) (meta.SampleInfo, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cols, err := b.db.Columns(si.BaseTable)
	if err != nil {
		return si, err
	}
	colList := strings.Join(cols, ", ")
	sampleCols, err := b.db.Columns(si.SampleTable)
	if err != nil {
		return si, err
	}

	// The batch size feeds the block-extension estimate and the metadata
	// refresh, so count it before inserting.
	rsB, err := b.db.QueryContext(context.Background(), "select count(*) from "+batchTable)
	if err != nil {
		return si, err
	}
	batchRows := int64(0)
	if v, ok := toInt(rsB.Rows[0][0]); ok {
		batchRows = v
	}

	// The appended rows must match the sample table's column list: current
	// builds always carry the block column (even single-block ones), while a
	// catalog rediscovered from an older deployment may not — probe the
	// table itself rather than trusting metadata.
	blockSel := ""
	if hasCol(sampleCols, BlockCol) {
		expr := "1"
		if si.BlockRows > 0 {
			// Expected appended sample rows from the sample's OBSERVED
			// acceptance rate: stratified staircase probabilities can sit far
			// above the nominal tau, and underestimating here would overfill
			// the open block instead of spilling.
			ratio := si.EffectiveRatio()
			if ratio == 0 {
				ratio = si.Ratio
			}
			expr = b.appendBlockExpr(si, float64(batchRows)*ratio)
		}
		blockSel = fmt.Sprintf(", %s as %s", expr, BlockCol)
	}

	// The sampled batch rows are staged in a scratch table first: the row and
	// per-block counts then come from the (small) delta alone, instead of
	// register's full recount over the whole sample — append cost stays
	// O(batch), not O(sample). Creation keeps using register so the two paths
	// cross-check each other (see TestAppendBatchIncrementalCountsMatchRecount).
	stage := si.SampleTable + "_verdict_stage"
	if err := b.exec("drop table if exists " + stage); err != nil {
		return si, err
	}
	var sql string
	switch si.Type {
	case sqlparser.UniformSample:
		sql = fmt.Sprintf(
			`create table %s as select %s, %.10g as %s, 1 + floor(rand() * %d) as %s%s from %s where rand() < %.10g`,
			stage, colList, si.Ratio, ProbCol, si.Subsamples, SidCol, blockSel, batchTable, si.Ratio)
	case sqlparser.HashedSample:
		col := si.Columns[0]
		sql = fmt.Sprintf(
			`create table %s as select %s, %.10g as %s, 1 + hash_bucket(%s, %d) as %s%s from %s where hash01(%s) < %.10g`,
			stage, colList, si.Ratio, ProbCol, col, si.Subsamples, SidCol, blockSel, batchTable, col, si.Ratio)
	case sqlparser.StratifiedSample:
		onConds := make([]string, len(si.Columns))
		groupCols := make([]string, len(si.Columns))
		for i, c := range si.Columns {
			onConds[i] = fmt.Sprintf("verdict_b.%s = verdict_p.%s", c, c)
			groupCols[i] = c
		}
		qualCols := make([]string, len(cols))
		for i, c := range cols {
			qualCols[i] = "verdict_b." + c
		}
		probs := fmt.Sprintf("(select %s, min(%s) as old_prob from %s group by %s)",
			strings.Join(groupCols, ", "), ProbCol, si.SampleTable, strings.Join(groupCols, ", "))
		sql = fmt.Sprintf(
			`create table %s as select %s, coalesce(verdict_p.old_prob, 1.0) as %s, 1 + floor(rand() * %d) as %s%s `+
				`from %s as verdict_b left join %s as verdict_p on %s `+
				`where rand() < coalesce(verdict_p.old_prob, 1.0)`,
			stage, strings.Join(qualCols, ", "), ProbCol, si.Subsamples, SidCol, blockSel,
			batchTable, probs, strings.Join(onConds, " and "))
	default:
		return si, fmt.Errorf("sampling: cannot append to %s sample", si.Type)
	}
	if err := b.exec(sql); err != nil {
		return si, err
	}
	defer func() { _ = b.exec("drop table if exists " + stage) }()

	stageRows, err := b.baseRows(stage)
	if err != nil {
		return si, err
	}
	var deltas []int64
	if si.BlockRows > 0 && hasCol(sampleCols, BlockCol) {
		if deltas, err = b.blockCounts(stage); err != nil {
			return si, err
		}
	}
	insCols := colList + ", " + ProbCol + ", " + SidCol
	if blockSel != "" {
		insCols += ", " + BlockCol
	}
	if err := b.exec(fmt.Sprintf("insert into %s select %s from %s", si.SampleTable, insCols, stage)); err != nil {
		return si, err
	}

	si.BaseRows += batchRows
	si.SampleRows += stageRows
	if len(deltas) > 0 {
		n := len(si.BlockCounts)
		if len(deltas) > n {
			n = len(deltas)
		}
		counts := make([]int64, n)
		copy(counts, si.BlockCounts)
		for i, d := range deltas {
			counts[i] += d
		}
		si.BlockCounts = counts
	}
	if err := b.cat.Register(si); err != nil {
		return si, err
	}
	return si, nil
}

// appendBlockExpr renders the block assignment for ~expectedRows appended
// sample rows: the last open block absorbs rows with probability equal to
// its remaining capacity's share of the batch, the rest spread uniformly
// over the new blocks needed beyond it.
func (b *Builder) appendBlockExpr(si meta.SampleInfo, expectedRows float64) string {
	last := int64(len(si.BlockCounts))
	if last == 0 {
		last = 1
	}
	var lastFill int64
	if len(si.BlockCounts) > 0 {
		lastFill = si.BlockCounts[last-1]
	}
	space := float64(si.BlockRows - lastFill)
	if space < 0 {
		space = 0
	}
	if expectedRows <= space || expectedRows <= 0 {
		return fmt.Sprintf("%d", last) // the open block absorbs the whole batch
	}
	newBlocks := int64(math.Ceil((expectedRows - space) / float64(si.BlockRows)))
	if newBlocks < 1 {
		newBlocks = 1
	}
	p := space / expectedRows
	if p <= 0 {
		if newBlocks == 1 {
			return fmt.Sprintf("%d", last+1)
		}
		return fmt.Sprintf("%d + floor(rand() * %d)", last+1, newBlocks)
	}
	return fmt.Sprintf("case when rand() < %.10g then %d else %d + floor(rand() * %d) end",
		p, last, last+1, newBlocks)
}

// IsStale reports whether a sample's recorded base-row count disagrees with
// the base table's current cardinality — the cheap staleness check the
// paper suggests for append-only workloads.
func (b *Builder) IsStale(si meta.SampleInfo) (bool, error) {
	n, err := b.baseRows(si.BaseTable)
	if err != nil {
		return false, err
	}
	return n != si.BaseRows, nil
}

func hasCol(cols []string, name string) bool {
	for _, c := range cols {
		if strings.EqualFold(c, name) {
			return true
		}
	}
	return false
}

func toInt(v any) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case float64:
		return int64(x), true
	}
	return 0, false
}

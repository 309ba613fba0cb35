package sqlparser

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Dialect controls SQL rendering differences between engines. VerdictDB's
// Syntax Changer (Section 2.1) renders the rewritten logical query into each
// backend's dialect; only this layer knows per-engine quirks.
type Dialect struct {
	Name string
	// QuoteIdent wraps an identifier in the dialect's quoting style.
	QuoteIdent func(string) string
	// FuncName maps a canonical function name to the dialect spelling
	// (e.g. hash01 -> crc32-based expression). Identity when nil.
	FuncName func(string) string
	// NoRandInWhere mirrors Impala's restriction that rand() may not appear
	// in selection predicates; the rewriter avoids such forms when set.
	NoRandInWhere bool
}

// DefaultDialect renders canonical SQL understood by internal/engine. A name
// that would not read back as itself is backquoted.
var DefaultDialect = Dialect{
	Name:       "canonical",
	QuoteIdent: quoteIfNeeded,
}

// quoteIfNeeded quotes s unless it lexes back as the name s: a plain word
// that is not reserved, or a keyword usable as a name (identifier) written in
// the lower case it reads back as.
func quoteIfNeeded(s string) string {
	plain := s != "" && isIdentStart(s[0])
	for i := 1; plain && i < len(s); i++ {
		plain = isIdentPart(s[i])
	}
	if up := strings.ToUpper(s); plain && (!keywords[up] || nameKeywords[up] && s == strings.ToLower(s)) {
		return s
	}
	if strings.Contains(s, "`") {
		return `"` + s + `"`
	}
	return "`" + s + "`"
}

// ident renders one name: a column, an alias, a table qualifier.
func (d Dialect) ident(s string) string {
	if d.QuoteIdent == nil {
		return s
	}
	return d.QuoteIdent(s)
}

// quote renders a table name, which may be qualified: never quoted wholesale.
func (d Dialect) quote(s string) string {
	if d.QuoteIdent == nil {
		return s
	}
	if strings.Contains(s, ".") {
		parts := strings.Split(s, ".")
		for i := range parts {
			parts[i] = d.QuoteIdent(parts[i])
		}
		return strings.Join(parts, ".")
	}
	return d.QuoteIdent(s)
}

// idents renders a name list, comma-separated.
func (d Dialect) idents(names []string) string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = d.ident(n)
	}
	return strings.Join(out, ", ")
}

func (d Dialect) funcName(name string) string {
	if d.FuncName == nil {
		return name
	}
	return d.FuncName(name)
}

// Format renders a statement in the default (canonical) dialect.
func Format(stmt Statement) string { return FormatDialect(stmt, DefaultDialect) }

// FormatExpr renders an expression in the default dialect.
func FormatExpr(e Expr) string {
	var sb strings.Builder
	DefaultDialect.formatExpr(&sb, e)
	return sb.String()
}

// FormatDialect renders a statement in the given dialect.
func FormatDialect(stmt Statement, d Dialect) string {
	var sb strings.Builder
	d.formatStmt(&sb, stmt)
	return sb.String()
}

func (d Dialect) formatStmt(sb *strings.Builder, stmt Statement) {
	switch s := stmt.(type) {
	case *SelectStmt:
		d.formatSelect(sb, s)
	case *CreateTableStmt:
		sb.WriteString("CREATE TABLE ")
		if s.IfNotExists {
			sb.WriteString("IF NOT EXISTS ")
		}
		sb.WriteString(d.quote(s.Name))
		if s.AsSelect != nil {
			sb.WriteString(" AS ")
			d.formatSelect(sb, s.AsSelect)
			return
		}
		sb.WriteString(" (")
		for i, c := range s.Columns {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(d.ident(c.Name))
			sb.WriteString(" ")
			sb.WriteString(c.Type)
		}
		sb.WriteString(")")
	case *DropTableStmt:
		sb.WriteString("DROP TABLE ")
		if s.IfExists {
			sb.WriteString("IF EXISTS ")
		}
		sb.WriteString(d.quote(s.Name))
	case *InsertStmt:
		sb.WriteString("INSERT INTO ")
		sb.WriteString(d.quote(s.Table))
		if len(s.Columns) > 0 {
			sb.WriteString(" (")
			sb.WriteString(d.idents(s.Columns))
			sb.WriteString(")")
		}
		if s.Select != nil {
			sb.WriteString(" ")
			d.formatSelect(sb, s.Select)
			return
		}
		sb.WriteString(" VALUES ")
		for i, row := range s.Rows {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("(")
			for j, e := range row {
				if j > 0 {
					sb.WriteString(", ")
				}
				d.formatExpr(sb, e)
			}
			sb.WriteString(")")
		}
	case *CreateSampleStmt:
		fmt.Fprintf(sb, "CREATE %s SAMPLE OF %s", strings.ToUpper(s.Type.String()), d.quote(s.Table))
		if len(s.Columns) > 0 {
			sb.WriteString(" ON (")
			sb.WriteString(d.idents(s.Columns))
			sb.WriteString(")")
		}
		if s.Ratio > 0 {
			fmt.Fprintf(sb, " RATIO %g", s.Ratio)
		}
	case *ShowSamplesStmt:
		sb.WriteString("SHOW SAMPLES")
	case *BypassStmt:
		sb.WriteString("BYPASS ")
		sb.WriteString(s.SQL)
	case *ExplainStmt:
		sb.WriteString("EXPLAIN ")
		sb.WriteString(s.SQL)
	default:
		fmt.Fprintf(sb, "/* unknown statement %T */", stmt)
	}
}

func (d Dialect) formatSelect(sb *strings.Builder, s *SelectStmt) {
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, item := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		switch {
		case item.Star && item.StarTable != "":
			sb.WriteString(d.ident(item.StarTable))
			sb.WriteString(".*")
		case item.Star:
			sb.WriteString("*")
		default:
			d.formatExpr(sb, item.Expr)
			if item.Alias != "" {
				sb.WriteString(" AS ")
				sb.WriteString(d.ident(item.Alias))
			}
		}
	}
	if s.From != nil {
		sb.WriteString(" FROM ")
		d.formatTable(sb, s.From)
	}
	if s.Where != nil {
		sb.WriteString(" WHERE ")
		d.formatExpr(sb, s.Where)
	}
	if len(s.GroupBy) > 0 {
		sb.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			d.formatExpr(sb, e)
		}
	}
	if s.Having != nil {
		sb.WriteString(" HAVING ")
		d.formatExpr(sb, s.Having)
	}
	if len(s.OrderBy) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, o := range s.OrderBy {
			if i > 0 {
				sb.WriteString(", ")
			}
			d.formatExpr(sb, o.Expr)
			if o.Desc {
				sb.WriteString(" DESC")
			}
		}
	}
	if s.Limit != nil {
		sb.WriteString(" LIMIT ")
		d.formatExpr(sb, s.Limit)
	}
	if s.Union != nil {
		sb.WriteString(" UNION ")
		if s.UnionAll {
			sb.WriteString("ALL ")
		}
		d.formatSelect(sb, s.Union)
	}
}

func (d Dialect) formatTable(sb *strings.Builder, t TableExpr) {
	switch tt := t.(type) {
	case *TableRef:
		sb.WriteString(d.quote(tt.Name))
		if tt.Alias != "" {
			sb.WriteString(" AS ")
			sb.WriteString(d.ident(tt.Alias))
		}
	case *DerivedTable:
		sb.WriteString("(")
		d.formatSelect(sb, tt.Select)
		sb.WriteString(")")
		if tt.Alias != "" {
			sb.WriteString(" AS ")
			sb.WriteString(d.ident(tt.Alias))
		}
	case *JoinExpr:
		d.formatTable(sb, tt.Left)
		sb.WriteString(" ")
		sb.WriteString(tt.Type.String())
		sb.WriteString(" ")
		// Parenthesize nested joins on the right for unambiguous re-parsing.
		if _, nested := tt.Right.(*JoinExpr); nested {
			sb.WriteString("(")
			d.formatTable(sb, tt.Right)
			sb.WriteString(")")
		} else {
			d.formatTable(sb, tt.Right)
		}
		if tt.On != nil {
			sb.WriteString(" ON ")
			d.formatExpr(sb, tt.On)
		} else if len(tt.Using) > 0 {
			sb.WriteString(" USING (")
			sb.WriteString(d.idents(tt.Using))
			sb.WriteString(")")
		}
	}
}

func (d Dialect) formatExpr(sb *strings.Builder, e Expr) {
	switch x := e.(type) {
	case *ColumnRef:
		if x.Table != "" {
			sb.WriteString(d.ident(x.Table))
			sb.WriteString(".")
		}
		sb.WriteString(d.ident(x.Name))
	case *Literal:
		d.formatLiteral(sb, x.Val)
	case *BinaryExpr:
		sb.WriteString("(")
		d.formatExpr(sb, x.L)
		sb.WriteString(" ")
		sb.WriteString(x.Op)
		sb.WriteString(" ")
		d.formatExpr(sb, x.R)
		sb.WriteString(")")
	case *UnaryExpr:
		if x.Op == "NOT" {
			sb.WriteString("(NOT ")
			d.formatExpr(sb, x.X)
			sb.WriteString(")")
			return
		}
		sb.WriteString("(")
		sb.WriteString(x.Op)
		d.formatExpr(sb, x.X)
		sb.WriteString(")")
	case *FuncCall:
		sb.WriteString(d.funcName(x.Name))
		sb.WriteString("(")
		if x.Distinct {
			sb.WriteString("DISTINCT ")
		}
		if x.Star {
			sb.WriteString("*")
		}
		for i, a := range x.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			d.formatExpr(sb, a)
		}
		sb.WriteString(")")
		if x.Over != nil {
			sb.WriteString(" OVER (")
			if len(x.Over.PartitionBy) > 0 {
				sb.WriteString("PARTITION BY ")
				for i, pe := range x.Over.PartitionBy {
					if i > 0 {
						sb.WriteString(", ")
					}
					d.formatExpr(sb, pe)
				}
			}
			sb.WriteString(")")
		}
	case *CaseExpr:
		sb.WriteString("CASE")
		if x.Operand != nil {
			sb.WriteString(" ")
			d.formatExpr(sb, x.Operand)
		}
		for _, w := range x.Whens {
			sb.WriteString(" WHEN ")
			d.formatExpr(sb, w.Cond)
			sb.WriteString(" THEN ")
			d.formatExpr(sb, w.Then)
		}
		if x.Else != nil {
			sb.WriteString(" ELSE ")
			d.formatExpr(sb, x.Else)
		}
		sb.WriteString(" END")
	case *SubqueryExpr:
		sb.WriteString("(")
		d.formatSelect(sb, x.Select)
		sb.WriteString(")")
	case *InExpr:
		sb.WriteString("(")
		d.formatExpr(sb, x.X)
		if x.Not {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" IN (")
		if x.Subquery != nil {
			d.formatSelect(sb, x.Subquery)
		} else {
			for i, le := range x.List {
				if i > 0 {
					sb.WriteString(", ")
				}
				d.formatExpr(sb, le)
			}
		}
		sb.WriteString("))")
	case *BetweenExpr:
		sb.WriteString("(")
		d.formatExpr(sb, x.X)
		if x.Not {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" BETWEEN ")
		d.formatExpr(sb, x.Lo)
		sb.WriteString(" AND ")
		d.formatExpr(sb, x.Hi)
		sb.WriteString(")")
	case *LikeExpr:
		sb.WriteString("(")
		d.formatExpr(sb, x.X)
		if x.Not {
			sb.WriteString(" NOT")
		}
		sb.WriteString(" LIKE ")
		d.formatExpr(sb, x.Pattern)
		sb.WriteString(")")
	case *IsNullExpr:
		sb.WriteString("(")
		d.formatExpr(sb, x.X)
		sb.WriteString(" IS ")
		if x.Not {
			sb.WriteString("NOT ")
		}
		sb.WriteString("NULL)")
	case *ExistsExpr:
		if x.Not {
			sb.WriteString("NOT ")
		}
		sb.WriteString("EXISTS (")
		d.formatSelect(sb, x.Select)
		sb.WriteString(")")
	case *CastExpr:
		sb.WriteString("CAST(")
		d.formatExpr(sb, x.X)
		sb.WriteString(" AS ")
		sb.WriteString(x.Type)
		sb.WriteString(")")
	case *IntervalExpr:
		fmt.Fprintf(sb, "INTERVAL '%s' %s", x.Value, x.Unit)
	default:
		fmt.Fprintf(sb, "/* unknown expr %T */", e)
	}
}

// literalEscaper escapes what the lexer unescapes in a string literal.
var literalEscaper = strings.NewReplacer("'", "''", `\`, `\\`)

func (d Dialect) formatLiteral(sb *strings.Builder, v any) {
	switch val := v.(type) {
	case nil:
		sb.WriteString("NULL")
	case bool:
		if val {
			sb.WriteString("TRUE")
		} else {
			sb.WriteString("FALSE")
		}
	case int64:
		sb.WriteString(strconv.FormatInt(val, 10))
	case int:
		sb.WriteString(strconv.Itoa(val))
	case float64:
		if val == 0 && math.Signbit(val) {
			sb.WriteString("-0.0") // "-0" reads back as the integer 0
			return
		}
		sb.WriteString(strconv.FormatFloat(val, 'g', -1, 64))
	case string:
		sb.WriteString("'")
		sb.WriteString(literalEscaper.Replace(val))
		sb.WriteString("'")
	default:
		fmt.Fprintf(sb, "%v", val)
	}
}

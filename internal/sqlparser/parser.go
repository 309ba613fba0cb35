package sqlparser

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser is a recursive-descent SQL parser with one token of lookahead.
type Parser struct {
	lex  *Lexer
	tok  Token
	peek *Token
	src  string
}

// Parse parses a single SQL statement (a trailing semicolon is allowed).
func Parse(sql string) (Statement, error) {
	p := &Parser{lex: NewLexer(sql), src: sql}
	p.advance()
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(TokOp, ";")
	if p.tok.Kind != TokEOF {
		return nil, p.errf("unexpected trailing input %q", p.tok.Text)
	}
	return stmt, nil
}

// ParseSelect parses a statement and requires it to be a SELECT.
func ParseSelect(sql string) (*SelectStmt, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("sqlparser: expected SELECT statement, got %T", stmt)
	}
	return sel, nil
}

func (p *Parser) advance() {
	if p.peek != nil {
		p.tok = *p.peek
		p.peek = nil
		return
	}
	p.tok = p.lex.Next()
}

func (p *Parser) peekTok() Token {
	if p.peek == nil {
		t := p.lex.Next()
		p.peek = &t
	}
	return *p.peek
}

func (p *Parser) errf(format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	return fmt.Errorf("sqlparser: %s (at offset %d near %q)", msg, p.tok.Pos, p.tok.Text)
}

// accept consumes the current token if it matches kind and (optionally) text.
func (p *Parser) accept(kind TokenKind, text string) bool {
	if p.tok.Kind != kind {
		return false
	}
	if text != "" && p.tok.Text != text {
		return false
	}
	p.advance()
	return true
}

func (p *Parser) acceptKeyword(kw string) bool { return p.accept(TokKeyword, kw) }

func (p *Parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errf("expected %s", kw)
	}
	return nil
}

func (p *Parser) expectOp(op string) error {
	if !p.accept(TokOp, op) {
		return p.errf("expected %q", op)
	}
	return nil
}

// identifier consumes an identifier (plain or quoted) or a non-reserved
// keyword usable as a name, returning its text.
func (p *Parser) identifier() (string, error) {
	switch p.tok.Kind {
	case TokIdent, TokQuotedIdent:
		name := p.tok.Text
		p.advance()
		return name, nil
	case TokKeyword:
		if nameKeywords[p.tok.Text] {
			name := strings.ToLower(p.tok.Text)
			p.advance()
			return name, nil
		}
	}
	return "", p.errf("expected identifier")
}

// nameKeywords are the keywords permitted as identifiers, where unambiguous.
var nameKeywords = map[string]bool{"DATE": true, "STRING": true, "INT": true, "DOUBLE": true, "SAMPLES": true, "SAMPLE": true, "IF": true}

func (p *Parser) parseStatement() (Statement, error) {
	switch {
	case p.tok.Kind == TokKeyword && p.tok.Text == "SELECT":
		return p.parseSelect()
	case p.tok.Kind == TokOp && p.tok.Text == "(":
		// Parenthesized select at top level.
		return p.parseSelect()
	case p.tok.Kind == TokKeyword && p.tok.Text == "CREATE":
		return p.parseCreate()
	case p.tok.Kind == TokKeyword && p.tok.Text == "DROP":
		return p.parseDrop()
	case p.tok.Kind == TokKeyword && p.tok.Text == "INSERT":
		return p.parseInsert()
	case p.tok.Kind == TokKeyword && p.tok.Text == "SHOW":
		p.advance()
		if err := p.expectKeyword("SAMPLES"); err != nil {
			return nil, err
		}
		return &ShowSamplesStmt{}, nil
	case p.tok.Kind == TokKeyword && p.tok.Text == "EXPLAIN":
		start := p.tok.Pos
		p.advance()
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		rest := strings.TrimSpace(p.src[start+len("EXPLAIN"):])
		return &ExplainStmt{Inner: inner, SQL: strings.TrimSuffix(rest, ";")}, nil
	case p.tok.Kind == TokKeyword && p.tok.Text == "BYPASS":
		start := p.tok.Pos
		p.advance()
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		rest := strings.TrimSpace(p.src[start+len("BYPASS"):])
		return &BypassStmt{Inner: inner, SQL: strings.TrimSuffix(rest, ";")}, nil
	}
	return nil, p.errf("unsupported statement")
}

func (p *Parser) parseCreate() (Statement, error) {
	p.advance() // CREATE
	// CREATE [UNIFORM|HASHED|STRATIFIED] SAMPLE ...
	if p.tok.Kind == TokKeyword {
		switch p.tok.Text {
		case "UNIFORM", "HASHED", "STRATIFIED", "SAMPLE":
			return p.parseCreateSample()
		}
	}
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	stmt := &CreateTableStmt{}
	if p.tok.Kind == TokKeyword && p.tok.Text == "IF" {
		p.advance()
		if err := p.expectKeyword("NOT"); err != nil {
			return nil, err
		}
		if p.tok.Kind != TokKeyword || p.tok.Text != "EXISTS" {
			return nil, p.errf("expected EXISTS")
		}
		p.advance()
		stmt.IfNotExists = true
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	if p.acceptKeyword("AS") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		stmt.AsSelect = sel
		return stmt, nil
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.identifier()
		if err != nil {
			return nil, err
		}
		typ, err := p.parseTypeName()
		if err != nil {
			return nil, err
		}
		stmt.Columns = append(stmt.Columns, ColumnDef{Name: col, Type: typ})
		if p.accept(TokOp, ",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *Parser) parseTypeName() (string, error) {
	if p.tok.Kind != TokKeyword && p.tok.Kind != TokIdent {
		return "", p.errf("expected type name")
	}
	typ := strings.ToUpper(p.tok.Text)
	p.advance()
	// Optional (precision[, scale]) suffix, e.g. DECIMAL(12,2), VARCHAR(25).
	if p.accept(TokOp, "(") {
		for p.tok.Kind == TokInt || (p.tok.Kind == TokOp && p.tok.Text == ",") {
			p.advance()
		}
		if err := p.expectOp(")"); err != nil {
			return "", err
		}
	}
	return typ, nil
}

func (p *Parser) parseCreateSample() (Statement, error) {
	stmt := &CreateSampleStmt{Type: UniformSample}
	switch p.tok.Text {
	case "UNIFORM":
		stmt.Type = UniformSample
		p.advance()
	case "HASHED":
		stmt.Type = HashedSample
		p.advance()
	case "STRATIFIED":
		stmt.Type = StratifiedSample
		p.advance()
	}
	if err := p.expectKeyword("SAMPLE"); err != nil {
		return nil, err
	}
	// OF is not a keyword; accept identifier "of".
	if p.tok.Kind == TokIdent && strings.EqualFold(p.tok.Text, "of") {
		p.advance()
	} else if !p.acceptKeyword("FROM") {
		return nil, p.errf("expected OF <table>")
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	stmt.Table = name
	if p.acceptKeyword("ON") {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		for {
			col, err := p.identifier()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
			if p.accept(TokOp, ",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if p.tok.Kind == TokIdent && strings.EqualFold(p.tok.Text, "ratio") {
		p.advance()
		if p.tok.Kind != TokFloat && p.tok.Kind != TokInt {
			return nil, p.errf("expected ratio value")
		}
		r, err := strconv.ParseFloat(p.tok.Text, 64)
		if err != nil {
			return nil, p.errf("bad ratio: %v", err)
		}
		stmt.Ratio = r
		p.advance()
	}
	return stmt, nil
}

func (p *Parser) parseDrop() (Statement, error) {
	p.advance() // DROP
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	stmt := &DropTableStmt{}
	if p.tok.Kind == TokKeyword && p.tok.Text == "IF" {
		p.advance()
		if p.tok.Kind != TokKeyword || p.tok.Text != "EXISTS" {
			return nil, p.errf("expected EXISTS")
		}
		p.advance()
		stmt.IfExists = true
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	return stmt, nil
}

func (p *Parser) parseInsert() (Statement, error) {
	p.advance() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	stmt := &InsertStmt{}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	stmt.Table = name
	if p.accept(TokOp, "(") {
		for {
			col, err := p.identifier()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
			if p.accept(TokOp, ",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if p.acceptKeyword("VALUES") {
		for {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var row []Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if p.accept(TokOp, ",") {
					continue
				}
				break
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			stmt.Rows = append(stmt.Rows, row)
			if p.accept(TokOp, ",") {
				continue
			}
			break
		}
		return stmt, nil
	}
	sel, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	stmt.Select = sel
	return stmt, nil
}

// qualifiedName parses ident(.ident)* and joins with dots.
func (p *Parser) qualifiedName() (string, error) {
	name, err := p.identifier()
	if err != nil {
		return "", err
	}
	for p.tok.Kind == TokOp && p.tok.Text == "." {
		p.advance()
		part, err := p.identifier()
		if err != nil {
			return "", err
		}
		name += "." + part
	}
	return name, nil
}

// parseSelect parses a (possibly parenthesized) SELECT with optional UNION
// continuations.
func (p *Parser) parseSelect() (*SelectStmt, error) {
	if p.accept(TokOp, "(") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		return p.parseUnionTail(sel)
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	sel := &SelectStmt{}
	if p.acceptKeyword("DISTINCT") {
		sel.Distinct = true
	} else {
		p.acceptKeyword("ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if p.accept(TokOp, ",") {
			continue
		}
		break
	}
	if p.acceptKeyword("FROM") {
		from, err := p.parseTableExpr()
		if err != nil {
			return nil, err
		}
		sel.From = from
	}
	if p.acceptKeyword("WHERE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = e
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if p.accept(TokOp, ",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = e
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if p.accept(TokOp, ",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Limit = e
	}
	return p.parseUnionTail(sel)
}

func (p *Parser) parseUnionTail(sel *SelectStmt) (*SelectStmt, error) {
	if !p.acceptKeyword("UNION") {
		return sel, nil
	}
	all := p.acceptKeyword("ALL")
	next, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	sel.Union = next
	sel.UnionAll = all
	return sel, nil
}

func (p *Parser) parseSelectItem() (SelectItem, error) {
	if p.tok.Kind == TokOp && p.tok.Text == "*" {
		p.advance()
		return SelectItem{Star: true}, nil
	}
	// t.* form: ident '.' '*' — needs two tokens of lookahead, so snapshot
	// the full parser position and rewind if the third token is not '*'.
	if p.tok.Kind == TokIdent || p.tok.Kind == TokQuotedIdent {
		if pk := p.peekTok(); pk.Kind == TokOp && pk.Text == "." {
			saveLex := *p.lex
			saveTok := p.tok
			savePeek := p.peek
			tbl := p.tok.Text
			p.advance() // ident
			p.advance() // '.'
			if p.tok.Kind == TokOp && p.tok.Text == "*" {
				p.advance()
				return SelectItem{Star: true, StarTable: tbl}, nil
			}
			restored := saveLex
			p.lex = &restored
			p.tok = saveTok
			p.peek = savePeek
		}
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.identifier()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.tok.Kind == TokIdent || p.tok.Kind == TokQuotedIdent {
		item.Alias = p.tok.Text
		p.advance()
	}
	return item, nil
}

func (p *Parser) parseTableExpr() (TableExpr, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		var jt JoinType
		switch {
		case p.tok.Kind == TokOp && p.tok.Text == ",":
			p.advance()
			right, err := p.parseTablePrimary()
			if err != nil {
				return nil, err
			}
			left = &JoinExpr{Left: left, Right: right, Type: CrossJoin}
			continue
		case p.tok.Kind == TokKeyword && p.tok.Text == "JOIN":
			jt = InnerJoin
			p.advance()
		case p.tok.Kind == TokKeyword && p.tok.Text == "INNER":
			p.advance()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = InnerJoin
		case p.tok.Kind == TokKeyword && (p.tok.Text == "LEFT" || p.tok.Text == "RIGHT" || p.tok.Text == "FULL"):
			kw := p.tok.Text
			p.advance()
			p.acceptKeyword("OUTER")
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			switch kw {
			case "LEFT":
				jt = LeftJoin
			case "RIGHT":
				jt = RightJoin
			default:
				jt = FullJoin
			}
		case p.tok.Kind == TokKeyword && p.tok.Text == "CROSS":
			p.advance()
			if err := p.expectKeyword("JOIN"); err != nil {
				return nil, err
			}
			jt = CrossJoin
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		join := &JoinExpr{Left: left, Right: right, Type: jt}
		if jt != CrossJoin {
			if p.acceptKeyword("ON") {
				on, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				join.On = on
			} else if p.acceptKeyword("USING") {
				if err := p.expectOp("("); err != nil {
					return nil, err
				}
				for {
					col, err := p.identifier()
					if err != nil {
						return nil, err
					}
					join.Using = append(join.Using, col)
					if p.accept(TokOp, ",") {
						continue
					}
					break
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			} else {
				return nil, p.errf("expected ON or USING after JOIN")
			}
		}
		left = join
	}
}

func (p *Parser) parseTablePrimary() (TableExpr, error) {
	if p.accept(TokOp, "(") {
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		dt := &DerivedTable{Select: sel}
		p.acceptKeyword("AS")
		if p.tok.Kind == TokIdent || p.tok.Kind == TokQuotedIdent {
			dt.Alias = p.tok.Text
			p.advance()
		}
		return dt, nil
	}
	name, err := p.qualifiedName()
	if err != nil {
		return nil, err
	}
	ref := &TableRef{Name: name}
	if p.acceptKeyword("AS") {
		alias, err := p.identifier()
		if err != nil {
			return nil, err
		}
		ref.Alias = alias
	} else if p.tok.Kind == TokIdent || p.tok.Kind == TokQuotedIdent {
		ref.Alias = p.tok.Text
		p.advance()
	}
	return ref, nil
}

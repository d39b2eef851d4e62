// Package query implements the exploration tier's heterogeneous data
// querying (Sec. 7.2 of the survey): one unified query language
// executed over the polystore, in the manner of Constance, CoreDB,
// Ontario and Squerall — the engine decomposes a query into per-store
// subqueries, pushes selection predicates down into stores that can
// evaluate them, executes with store-native access paths, and merges
// subquery results into a single table.
//
// The language is a minimal SQL dialect:
//
//	SELECT a, b FROM rel:orders WHERE status = 'open' AND total > 10 LIMIT 5
//	SELECT * FROM doc:events WHERE kind = 'click'
//	SELECT path, size FROM file:raw/
//	SELECT city, price FROM rel:hotels_a, rel:hotels_b   -- union-all
//	SELECT city, price FROM rel:hotels_a ORDER BY price DESC, city LIMIT 3
//	EXPLAIN SELECT city FROM rel:hotels_a, doc:hotels_b WHERE price > 40
//
// Source prefixes select the member store: rel: (relational), doc:
// (document), file: (raw object listing). A bare name resolves
// relational, then document. String literals
// escape an embedded quote by doubling it ('o”brien').
package query

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// ErrSyntax classifies statements the dialect cannot parse; every
// parser error wraps it so callers test with errors.Is instead of
// matching message text.
var ErrSyntax = errors.New("query: syntax error")

func synErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSyntax, fmt.Sprintf(format, args...))
}

// CmpOp is a predicate comparison operator.
type CmpOp string

// Supported comparison operators.
const (
	OpEq  CmpOp = "="
	OpNe  CmpOp = "!="
	OpGt  CmpOp = ">"
	OpGte CmpOp = ">="
	OpLt  CmpOp = "<"
	OpLte CmpOp = "<="
)

// Predicate is one WHERE conjunct.
type Predicate struct {
	Column string
	Op     CmpOp
	Value  string
	// Numeric is true when Value parsed as a number; comparisons then
	// run numerically with string fallback.
	Numeric bool
}

// OrderKey is one ORDER BY sort key. Cells where both sides parse as
// numbers compare numerically; numeric cells sort before non-numeric
// ones; everything else compares lexicographically — a total order, so
// sorted output is deterministic regardless of arrival order.
type OrderKey struct {
	Column string
	Desc   bool
}

// String renders the key in dialect form.
func (k OrderKey) String() string {
	if k.Desc {
		return k.Column + " DESC"
	}
	return k.Column
}

// Query is a parsed statement.
type Query struct {
	// Columns to project; empty means SELECT *.
	Columns []string
	// Sources are the FROM items, possibly prefixed (rel:, doc:,
	// file:).
	Sources []string
	// Where holds the conjunctive predicates.
	Where []Predicate
	// Order holds the ORDER BY keys in significance order; empty means
	// no sort stage.
	Order []OrderKey
	// Limit bounds the result rows (0 = unlimited).
	Limit int
	// Explain marks an EXPLAIN statement: plan the query, run nothing.
	Explain bool
	// Analyze marks EXPLAIN ANALYZE: run the query to completion,
	// discard the rows, and annotate the plan with live timings and
	// counters. Implies Explain.
	Analyze bool
}

// Parse parses the minimal SQL dialect.
func Parse(s string) (*Query, error) {
	toks, err := tokenize(s)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parse()
}

type parser struct {
	toks []string
	pos  int
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expectKeyword(kw string) error {
	if !strings.EqualFold(p.peek(), kw) {
		return synErrf("expected %s, got %q", kw, p.peek())
	}
	p.pos++
	return nil
}

func (p *parser) parse() (*Query, error) {
	q := &Query{}
	if strings.EqualFold(p.peek(), "EXPLAIN") {
		p.next()
		q.Explain = true
		if strings.EqualFold(p.peek(), "ANALYZE") {
			p.next()
			q.Analyze = true
		}
	}
	if err := p.expectKeyword("SELECT"); err != nil {
		return nil, err
	}
	// Projection list.
	if p.peek() == "*" {
		p.next()
	} else {
		for {
			col := p.next()
			if col == "" {
				return nil, synErrf("missing column name")
			}
			q.Columns = append(q.Columns, col)
			if p.peek() != "," {
				break
			}
			p.next()
		}
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	for {
		src := p.next()
		if src == "" {
			return nil, synErrf("missing source")
		}
		q.Sources = append(q.Sources, src)
		if p.peek() != "," {
			break
		}
		p.next()
	}
	if strings.EqualFold(p.peek(), "WHERE") {
		p.next()
		for {
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			q.Where = append(q.Where, pred)
			if !strings.EqualFold(p.peek(), "AND") {
				break
			}
			p.next()
		}
	}
	if strings.EqualFold(p.peek(), "ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col := p.next()
			if col == "" || col == "," {
				return nil, synErrf("missing ORDER BY column")
			}
			key := OrderKey{Column: col}
			switch {
			case strings.EqualFold(p.peek(), "DESC"):
				key.Desc = true
				p.next()
			case strings.EqualFold(p.peek(), "ASC"):
				p.next()
			}
			q.Order = append(q.Order, key)
			if p.peek() != "," {
				break
			}
			p.next()
		}
	}
	if strings.EqualFold(p.peek(), "LIMIT") {
		p.next()
		n, err := strconv.Atoi(p.next())
		if err != nil || n < 0 {
			return nil, synErrf("bad LIMIT")
		}
		q.Limit = n
	}
	if p.pos != len(p.toks) {
		return nil, synErrf("trailing tokens near %q", p.peek())
	}
	return q, nil
}

func (p *parser) parsePredicate() (Predicate, error) {
	col := p.next()
	if col == "" {
		return Predicate{}, synErrf("missing predicate column")
	}
	op := CmpOp(p.next())
	switch op {
	case OpEq, OpNe, OpGt, OpGte, OpLt, OpLte:
	default:
		return Predicate{}, synErrf("bad operator %q", op)
	}
	val := p.next()
	if val == "" {
		return Predicate{}, synErrf("missing predicate value")
	}
	pred := Predicate{Column: col, Op: op}
	if strings.HasPrefix(val, "'") {
		// A string-literal token: the tokenizer keeps the opening quote
		// as a marker and has already unescaped the content, so quoted
		// values — even numeric-looking ones like '10' — stay string
		// predicates and survive a String() round-trip.
		pred.Value = val[1:]
	} else {
		pred.Value = val
		if _, err := strconv.ParseFloat(val, 64); err == nil {
			pred.Numeric = true
		}
	}
	return pred, nil
}

// tokenize splits on whitespace, keeping quoted strings and separating
// commas and comparison operators. A string literal is tokenized as its
// unescaped content behind a single leading quote marker (” inside a
// literal escapes one quote), so downstream consumers never re-guess
// where the literal ended.
func tokenize(s string) ([]string, error) {
	var toks []string
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == ',':
			toks = append(toks, ",")
			i++
		case c == '\'':
			var lit strings.Builder
			lit.WriteByte('\'')
			j := i + 1
			for {
				if j >= len(s) {
					return nil, synErrf("unterminated string literal")
				}
				if s[j] == '\'' {
					if j+1 < len(s) && s[j+1] == '\'' {
						lit.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				lit.WriteByte(s[j])
				j++
			}
			toks = append(toks, lit.String())
			i = j + 1
		case c == '!' || c == '>' || c == '<' || c == '=':
			if i+1 < len(s) && s[i+1] == '=' {
				toks = append(toks, s[i:i+2])
				i += 2
			} else {
				toks = append(toks, string(c))
				i++
			}
		default:
			j := i
			for j < len(s) && !strings.ContainsRune(" \t\n\r,'!><=", rune(s[j])) {
				j++
			}
			toks = append(toks, s[i:j])
			i = j
		}
	}
	return toks, nil
}

// String renders the query back into the dialect; Parse(q.String())
// yields an equivalent query. String values are quoted with embedded
// quotes doubled, so values containing ' — and numeric-looking values
// that arrived quoted — round-trip unambiguously.
func (q *Query) String() string {
	var sb strings.Builder
	if q.Explain {
		sb.WriteString("EXPLAIN ")
		if q.Analyze {
			sb.WriteString("ANALYZE ")
		}
	}
	sb.WriteString("SELECT ")
	if len(q.Columns) == 0 {
		sb.WriteString("*")
	} else {
		sb.WriteString(strings.Join(q.Columns, ", "))
	}
	sb.WriteString(" FROM ")
	sb.WriteString(strings.Join(q.Sources, ", "))
	if len(q.Where) > 0 {
		sb.WriteString(" WHERE ")
		for i, p := range q.Where {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			sb.WriteString(p.String())
		}
	}
	if len(q.Order) > 0 {
		sb.WriteString(" ORDER BY ")
		for i, k := range q.Order {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(k.String())
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&sb, " LIMIT %d", q.Limit)
	}
	return sb.String()
}

// quoteValue renders a string literal, doubling embedded quotes.
func quoteValue(v string) string {
	return "'" + strings.ReplaceAll(v, "'", "''") + "'"
}

// String renders the predicate in dialect form (EXPLAIN plans reuse
// it to describe pushed-down predicates).
func (pr Predicate) String() string {
	v := pr.Value
	if !pr.Numeric {
		v = quoteValue(v)
	}
	return pr.Column + " " + string(pr.Op) + " " + v
}

// Matches evaluates the predicate against a string cell.
func (pr Predicate) Matches(cell string) bool {
	if pr.Numeric {
		a, errA := strconv.ParseFloat(cell, 64)
		b, errB := strconv.ParseFloat(pr.Value, 64)
		if errA == nil && errB == nil {
			switch pr.Op {
			case OpEq:
				return a == b
			case OpNe:
				return a != b
			case OpGt:
				return a > b
			case OpGte:
				return a >= b
			case OpLt:
				return a < b
			case OpLte:
				return a <= b
			}
		}
		// fall through to string comparison when the cell is not
		// numeric
	}
	switch pr.Op {
	case OpEq:
		return cell == pr.Value
	case OpNe:
		return cell != pr.Value
	case OpGt:
		return cell > pr.Value
	case OpGte:
		return cell >= pr.Value
	case OpLt:
		return cell < pr.Value
	case OpLte:
		return cell <= pr.Value
	}
	return false
}

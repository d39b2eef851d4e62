package table

import (
	"strconv"
	"strings"
	"time"
)

// InferKind infers the dominant type of a cell sequence. A column is
// typed K if at least 95% of its non-null cells parse as K, following
// the tolerant inference used by lake profilers (Skluma, GOODS): raw
// data routinely carries a few mistyped cells.
//
// A kind is out of the running once its misses exceed 5% of len(cells),
// which the non-null count cannot outgrow. A parser runs only while its
// kind is in and on a cell shaped like its input: a failed strconv or
// time parse allocates its error, eight of them per cell of plain words.
func InferKind(cells []string) Kind {
	const tolerance = 0.95
	maxMiss := len(cells) / 20
	var nonNull, ints, floats, bools, times int
	for _, v := range cells {
		s := strings.TrimSpace(v)
		if isNullToken(s) {
			continue
		}
		// nonNull counts the cells before this one, so these are misses.
		out := func(hits int) bool { return nonNull-hits > maxMiss }
		if out(floats) && out(bools) && out(times) {
			return KindString
		}
		// The kinds are disjoint but for int within float, so skipping
		// a parser that is out never hands its cell to a later one.
		shape := NumberShape(s)
		switch {
		case shape == 2 && !out(ints) && parses(strconv.ParseInt(s, 10, 64)):
			ints++
			floats++ // every int is a float
		case shape >= 1 && !out(floats) && parses(strconv.ParseFloat(s, 64)):
			floats++
		case isBoolToken(s):
			bools++
		case !out(times) && parseTime(s):
			times++
		}
		nonNull++
	}
	if nonNull == 0 {
		return KindUnknown
	}
	frac := func(n int) float64 { return float64(n) / float64(nonNull) }
	switch {
	case frac(ints) >= tolerance:
		return KindInt
	case frac(floats) >= tolerance:
		return KindFloat
	case frac(bools) >= tolerance:
		return KindBool
	case frac(times) >= tolerance:
		return KindTime
	default:
		return KindString
	}
}

func parses[T any](_ T, err error) bool { return err == nil }

// NumberShape is 2 for base-10 integer syntax (ParseInt can then fail on
// range alone), 1 for what strconv.ParseFloat might still take, else 0;
// s must not be empty. It never refuses what a parser accepts; it
// refuses words and dates without the parse error a failed parse
// allocates: a number starts with a digit or '.' and takes a sign
// inside only behind an exponent letter.
func NumberShape(s string) int {
	if s[0] == '+' || s[0] == '-' {
		s = s[1:]
	}
	if s == "" || ((s[0] < '0' || s[0] > '9') && s[0] != '.') {
		// The parsers spell these in ASCII only, so length decides first.
		if len(s) == 3 && (strings.EqualFold(s, "inf") || strings.EqualFold(s, "nan")) ||
			len(s) == 8 && strings.EqualFold(s, "infinity") {
			return 1
		}
		return 0
	}
	shape := 2
	for i := 0; i < len(s); i++ {
		switch c, prev := s[i]|0x20, s[max(i, 1)-1]|0x20; {
		case '0' <= s[i] && s[i] <= '9':
		case s[i] == '.', s[i] == '_', 'a' <= c && c <= 'f', c == 'x', c == 'p',
			(s[i] == '+' || s[i] == '-') && (prev == 'e' || prev == 'p'):
			shape = 1
		default:
			return 0
		}
	}
	return shape
}

// isBoolToken folds ASCII case only, as strings.ToLower would decide it:
// at a token's byte length no other string folds to it.
func isBoolToken(s string) bool {
	for _, tok := range [...]string{"true", "false", "yes", "no", "t", "f"} {
		if len(s) == len(tok) && strings.EqualFold(s, tok) {
			return true
		}
	}
	return false
}

// parseTime reports whether s is a timestamp in a recognized layout: RFC
// 3339, "2006-01-02 15:04:05", "2006-01-02", "01/02/2006", "2006/01/02"
// or RFC 1123. A value has its layout's separators at fixed offsets and
// no other layout's: bytes 2, 3, 4 and 10 pick the one worth parsing.
func parseTime(s string) bool {
	layout := "2006-01-02 15:04:05"
	switch {
	case len(s) < 10:
		return false
	case s[3] == ',' && strings.IndexByte("mtwfs", s[0]|0x20) >= 0: // a weekday's letter
		layout = time.RFC1123
	case s[0] < '0' || s[0] > '9' || (s[2] != '/' && s[4] != '/' && s[4] != '-'):
		return false
	case s[2] == '/':
		layout = "01/02/2006"
	case s[4] == '/':
		layout = "2006/01/02"
	case len(s) == 10:
		layout = "2006-01-02"
	case s[10] == 'T':
		layout = time.RFC3339
	}
	return parses(time.Parse(layout, s))
}

func parseFloat(s string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	return f, err == nil
}

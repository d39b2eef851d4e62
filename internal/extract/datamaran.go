package extract

import (
	"sort"
	"strings"

	"golake/internal/sketch"
)

// StructureTemplate is one extracted record structure: the generalized
// per-line patterns of a (possibly multi-line) record type, with the
// fraction of input lines it covers.
type StructureTemplate struct {
	Lines    []string
	Coverage float64
	// Records is the number of record instances matched.
	Records int
}

// Key renders the template as a comparable string.
func (t StructureTemplate) Key() string { return strings.Join(t.Lines, "↵") }

// DatamaranConfig tunes the three-step extraction.
type DatamaranConfig struct {
	// MaxRecordSpan is the maximum number of lines per record
	// considered during candidate generation.
	MaxRecordSpan int
	// CoverageThreshold drops candidate templates covering less than
	// this fraction of lines (DATAMARAN's coverage assumption).
	CoverageThreshold float64
}

// DefaultDatamaranConfig mirrors the paper's assumption that real
// record types cover a non-trivial fraction of the file.
func DefaultDatamaranConfig() DatamaranConfig {
	return DatamaranConfig{MaxRecordSpan: 3, CoverageThreshold: 0.05}
}

// Datamaran extracts record structure templates from a log file without
// supervision, following the paper's three steps (Sec. 5.1):
//
//  1. Generation: every line is generalized into a character-class
//     pattern; candidate templates are pattern sequences of span
//     1..MaxRecordSpan, counted in hash tables, and kept only when
//     they satisfy the coverage threshold.
//  2. Pruning: candidates are scored (coverage times specificity) and
//     templates subsumed by a higher-scoring overlapping candidate are
//     removed.
//  3. Refinement: surviving templates are greedily matched against the
//     file to compute final record counts and coverage.
func Datamaran(content string, cfg DatamaranConfig) []StructureTemplate {
	if cfg.MaxRecordSpan <= 0 {
		cfg.MaxRecordSpan = 3
	}
	rawLines := strings.Split(content, "\n")
	lines := make([]string, 0, len(rawLines))
	for _, ln := range rawLines {
		if strings.TrimSpace(ln) != "" {
			lines = append(lines, ln)
		}
	}
	if len(lines) == 0 {
		return nil
	}
	patterns := make([]string, len(lines))
	for i, ln := range lines {
		patterns[i] = sketch.RegexPattern(ln)
	}

	// Step 1: candidate generation.
	type cand struct {
		lines []string
		count int
	}
	counts := map[string]*cand{}
	for span := 1; span <= cfg.MaxRecordSpan; span++ {
		for i := 0; i+span <= len(patterns); i++ {
			seq := patterns[i : i+span]
			key := strings.Join(seq, "↵")
			c, ok := counts[key]
			if !ok {
				c = &cand{lines: append([]string(nil), seq...)}
				counts[key] = c
			}
			c.count++
		}
	}
	total := float64(len(lines))
	var candidates []*cand
	for _, c := range counts {
		// Overlapping counts over-estimate coverage (a run of k equal
		// patterns yields k-s+1 windows of span s); use them only as a
		// cheap upper-bound filter, then recount non-overlapping.
		if float64(c.count*len(c.lines))/total < cfg.CoverageThreshold {
			continue
		}
		c.count = countNonOverlapping(patterns, c.lines)
		if float64(c.count*len(c.lines))/total >= cfg.CoverageThreshold {
			candidates = append(candidates, c)
		}
	}

	// Step 2: pruning by score; more specific templates win over their
	// own sub-sequences at comparable coverage.
	score := func(c *cand) float64 {
		cov := float64(c.count*len(c.lines)) / total
		spec := 0.0
		for _, ln := range c.lines {
			spec += float64(len(ln))
		}
		spec /= float64(len(c.lines)) // average per-line specificity
		return cov * (1 + spec/64)
	}
	sort.Slice(candidates, func(i, j int) bool {
		si, sj := score(candidates[i]), score(candidates[j])
		if si != sj {
			return si > sj
		}
		return strings.Join(candidates[i].lines, "") < strings.Join(candidates[j].lines, "")
	})
	var kept []*cand
	for _, c := range candidates {
		subsumed := false
		for _, k := range kept {
			if contains(k.lines, c.lines) || contains(c.lines, k.lines) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			kept = append(kept, c)
		}
	}

	// Step 3: refinement — greedy left-to-right matching to compute
	// exclusive coverage; drop templates that never fire.
	matchedRecords := make([]int, len(kept))
	coveredLines := make([]int, len(kept))
	for i := 0; i < len(patterns); {
		best := -1
		bestSpan := 0
		for ti, c := range kept {
			span := len(c.lines)
			if i+span > len(patterns) {
				continue
			}
			ok := true
			for j, want := range c.lines {
				if patterns[i+j] != want {
					ok = false
					break
				}
			}
			if ok && span > bestSpan {
				best, bestSpan = ti, span
			}
		}
		if best < 0 {
			i++
			continue
		}
		matchedRecords[best]++
		coveredLines[best] += bestSpan
		i += bestSpan
	}
	var out []StructureTemplate
	for ti, c := range kept {
		if matchedRecords[ti] == 0 {
			continue
		}
		cov := float64(coveredLines[ti]) / total
		if cov < cfg.CoverageThreshold {
			continue
		}
		out = append(out, StructureTemplate{
			Lines:    c.lines,
			Coverage: cov,
			Records:  matchedRecords[ti],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Coverage != out[j].Coverage {
			return out[i].Coverage > out[j].Coverage
		}
		return out[i].Key() < out[j].Key()
	})
	return out
}

// countNonOverlapping counts greedy left-to-right non-overlapping
// matches of sub in patterns.
func countNonOverlapping(patterns, sub []string) int {
	n := 0
	for i := 0; i+len(sub) <= len(patterns); {
		ok := true
		for j := range sub {
			if patterns[i+j] != sub[j] {
				ok = false
				break
			}
		}
		if ok {
			n++
			i += len(sub)
		} else {
			i++
		}
	}
	return n
}

// contains reports whether seq contains sub as a contiguous
// subsequence.
func contains(seq, sub []string) bool {
	if len(sub) > len(seq) {
		return false
	}
	for i := 0; i+len(sub) <= len(seq); i++ {
		ok := true
		for j := range sub {
			if seq[i+j] != sub[j] {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

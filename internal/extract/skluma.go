package extract

import (
	"fmt"
	"math"
	"path"
	"sort"
	"strings"

	"golake/internal/sketch"
	"golake/internal/storage/filestore"
	"golake/internal/storage/polystore"
	"golake/internal/table"
)

// ContentMetadata is Skluma-style content and context metadata for one
// file: context from the path, content from a type-specific extractor
// (Sec. 5.1). Unlike GEMMS's structural focus, Skluma samples the data
// itself: keyword summaries for text, aggregates for tabular values,
// null maps for sparse files.
type ContentMetadata struct {
	Path      string
	Name      string
	Extension string
	SizeBytes int
	Format    filestore.Format
	// Keywords are the top content terms with TF scores (free text and
	// string columns).
	Keywords []Keyword
	// NumericSummary aggregates every numeric column (tabular files).
	NumericSummary map[string]NumericAggregate
	// NullFraction is the fraction of null cells (tabular files).
	NullFraction float64
	// TopicHint is a coarse label derived from keywords.
	TopicHint string
}

// Keyword is a scored content term.
type Keyword struct {
	Term  string
	Score float64
}

// NumericAggregate summarizes one numeric column.
type NumericAggregate struct {
	Min, Max, Mean float64
}

// Skluma extracts content/context metadata from a file, dispatching on
// the detected format like the Skluma pipeline's per-type extractors.
func Skluma(p string, data []byte) (*ContentMetadata, error) {
	format := filestore.Detect(p, data)
	md := &ContentMetadata{
		Path:      p,
		Name:      path.Base(p),
		Extension: strings.TrimPrefix(path.Ext(p), "."),
		SizeBytes: len(data),
		Format:    format,
	}
	switch format {
	case filestore.FormatCSV:
		t, err := table.ReadCSV(polystore.DerivedName(p), data)
		if err != nil {
			return nil, fmt.Errorf("skluma: %s: %w", p, err)
		}
		md.NumericSummary = map[string]NumericAggregate{}
		totalCells, nullCells := 0, 0
		var textTokens []string
		for _, c := range t.Columns {
			totalCells += c.Len()
			nullCells += c.NullCount()
			if c.Kind.Numeric() {
				prof := table.Profile(c)
				if !math.IsNaN(prof.Mean) {
					md.NumericSummary[c.Name] = NumericAggregate{Min: prof.Min, Max: prof.Max, Mean: prof.Mean}
				}
				continue
			}
			for _, v := range c.Cells {
				textTokens = append(textTokens, sketch.Tokenize(v)...)
			}
		}
		if totalCells > 0 {
			md.NullFraction = float64(nullCells) / float64(totalCells)
		}
		md.Keywords = topKeywords(textTokens, 10)
	case filestore.FormatJSON, filestore.FormatJSONL, filestore.FormatXML, filestore.FormatText, filestore.FormatLog:
		md.Keywords = topKeywords(sketch.Tokenize(string(data)), 10)
	}
	md.TopicHint = topicHint(md.Keywords)
	return md, nil
}

// topKeywords ranks tokens by frequency, dropping stopwords and pure
// numbers, keeping the top n.
func topKeywords(tokens []string, n int) []Keyword {
	tf := map[string]int{}
	for _, t := range tokens {
		if len(t) < 3 || stopwords[t] || isNumber(t) {
			continue
		}
		tf[t]++
	}
	out := make([]Keyword, 0, len(tf))
	for t, c := range tf {
		out = append(out, Keyword{Term: t, Score: float64(c)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Term < out[j].Term
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func topicHint(kws []Keyword) string {
	if len(kws) == 0 {
		return "unknown"
	}
	return kws[0].Term
}

func isNumber(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return len(s) > 0
}

var stopwords = map[string]bool{
	"the": true, "and": true, "for": true, "with": true, "that": true,
	"this": true, "from": true, "are": true, "was": true, "has": true,
	"have": true, "not": true, "but": true, "you": true, "all": true,
}

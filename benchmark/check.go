package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"
)

// The correctness gates. Every answer the clients read goes through one
// of these. An op whose answer trips a gate is counted as failed; its
// latency stays in the sample and the run reports correct=false.

var (
	errTruncated = errors.New("stream ended without a {\"stats\"} trailer")
	errTrailer   = errors.New("stream ended with an {\"error\"} trailer")
)

// checkNDJSON reads one streamed POST /v1/query answer to its last byte
// and holds it against exp: a {"columns"} header naming exp.columns, row
// lines (JSON arrays), then a {"stats"} trailer and nothing after it. It
// returns when the first row line arrived (zero when there was none).
func checkNDJSON(br *bufio.Reader, exp *expectation) (firstRow time.Time, err error) {
	var (
		rows    int
		hash    uint64
		header  bool
		trailer bool
		seen    map[string]bool
	)
	if exp.member != nil {
		seen = make(map[string]bool, exp.rows)
	}
	for {
		line, rerr := br.ReadSlice('\n')
		if rerr != nil && rerr != io.EOF {
			// A line longer than the buffer, or a broken connection.
			return firstRow, fmt.Errorf("read stream: %w", rerr)
		}
		line = bytes.TrimSpace(line)
		if len(line) > 0 {
			switch {
			case trailer:
				return firstRow, fmt.Errorf("data after the stats trailer: %.40q", line)
			case line[0] == '[':
				if !header {
					return firstRow, errors.New("row before the columns header")
				}
				if rows == 0 {
					firstRow = time.Now()
				}
				rows++
				switch {
				case exp.ordered:
					hash = foldOrdered(hash, lineHash(line))
				case exp.member != nil:
					var cells []string
					if err := json.Unmarshal(line, &cells); err != nil {
						return firstRow, fmt.Errorf("row %d is not a JSON string array: %w", rows, err)
					}
					if !exp.member(cells) {
						return firstRow, fmt.Errorf("row %d %v does not satisfy the statement", rows, cells)
					}
					if seen[string(line)] {
						return firstRow, fmt.Errorf("row %d %v returned twice", rows, cells)
					}
					seen[string(line)] = true
				default:
					hash += lineHash(line)
				}
			case line[0] == '{':
				var obj map[string]json.RawMessage
				if err := json.Unmarshal(line, &obj); err != nil {
					return firstRow, fmt.Errorf("metadata line is not a JSON object: %w", err)
				}
				switch {
				case obj["error"] != nil:
					return firstRow, fmt.Errorf("%w: %s", errTrailer, obj["error"])
				case obj["stats"] != nil:
					trailer = true
				case obj["columns"] != nil && !header:
					var cols []string
					if err := json.Unmarshal(obj["columns"], &cols); err != nil {
						return firstRow, fmt.Errorf("columns header: %w", err)
					}
					if !slices.Equal(cols, exp.columns) {
						return firstRow, fmt.Errorf("columns %v, want %v", cols, exp.columns)
					}
					header = true
				default:
					return firstRow, fmt.Errorf("unexpected metadata line %.60q", line)
				}
			default:
				return firstRow, fmt.Errorf("unframed line %.40q", line)
			}
		}
		if rerr == io.EOF {
			break
		}
	}
	if !trailer {
		return firstRow, errTruncated
	}
	if rows != exp.rows {
		return firstRow, fmt.Errorf("%d rows, want %d", rows, exp.rows)
	}
	if exp.member == nil && hash != exp.hash {
		return firstRow, fmt.Errorf("row hash %x, want %x (%d rows)", hash, exp.hash, rows)
	}
	return firstRow, nil
}

// relatedResult is one entry of a /v1/related or /v1/explore answer.
type relatedResult struct {
	Table string
	Score float64
	Via   string
}

// checkRelated is the discovery gate: the answer must be a non-empty
// JSON result list with at least one ground-truth partner among its
// first k entries (populate mode may append coverage tables after them).
func checkRelated(body []byte, k int, partner func(table string) bool) error {
	var res []relatedResult
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("related answer is not a result list: %w", err)
	}
	if len(res) == 0 {
		return errors.New("related answer is empty")
	}
	if len(res) > k {
		res = res[:k]
	}
	names := make([]string, len(res))
	for i, r := range res {
		if partner(r.Table) {
			return nil
		}
		names[i] = r.Table
	}
	return fmt.Errorf("related answer's top %d %v miss every ground-truth partner", k, names)
}

// passReport is the POST /v1/maintenance answer.
type passReport struct {
	Mode     string `json:"mode"`
	Datasets int    `json:"datasets"`
	Tables   int    `json:"tables"`
	Stale    bool   `json:"stale"`
}

// checkIncrementalPass is the maintenance gate of a journey: the pass
// the curator triggered must have been incremental and have indexed
// exactly the one dataset just ingested.
func checkIncrementalPass(body []byte) error {
	var rep passReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("maintenance answer: %w", err)
	}
	if rep.Mode != "incremental" || rep.Datasets != 1 {
		return fmt.Errorf("maintenance pass was %q over %d datasets, want incremental over 1", rep.Mode, rep.Datasets)
	}
	return nil
}

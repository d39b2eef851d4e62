package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The per-layer metrics: one module's cost, taken from outside it by
// timing calls into its public functions (or by reading the counters it
// publishes at GET /v1/metrics). The layers are this repository's
// packages. BENCHMARK.json lists the same names; README.md says which
// end-to-end metric each should move, and on which workload.
var perLayerUnits = map[string]string{
	"query.parse_us":                     "us",
	"query.plan_us":                      "us",
	"query.scan_rows_per_s":              "1/s",
	"query.topk_ms":                      "ms",
	"query.mixed_rows_per_s":             "1/s",
	"query.rows_examined_per_row_out":    "ratio",
	"query.allocs_per_row":               "count",
	"polystore.scan_rows_per_s":          "1/s",
	"polystore.ingest_rows_per_s":        "1/s",
	"table.parse_csv_rows_per_s":         "1/s",
	"extract.extract_us":                 "us",
	"core.q_scan_p50_ms":                 "ms",
	"core.q_topk_p50_ms":                 "ms",
	"core.q_short_p50_ms":                "ms",
	"core.q_mixed_p50_ms":                "ms",
	"core.first_row_p50_ms":              "ms",
	"core.lake_query_overhead_us":        "us",
	"core.ndjson_rows_per_s":             "1/s",
	"core.http_tax_ms":                   "ms",
	"core.ingest_ms":                     "ms",
	"core.ingest_self_ms":                "ms",
	"core.open_ms_per_mb":                "ms/MB",
	"persist.encode_frame_mb_per_s":      "MB/s",
	"persist.append_nosync_us":           "us",
	"persist.append_fsync_us":            "us",
	"persist.checkpoint_ms_per_mb":       "ms/MB",
	"persist.decode_mb_per_s":            "MB/s",
	"persist.fsyncs_per_ingest":          "count",
	"persist.wal_bytes_per_user_byte":    "ratio",
	"persist.checkpoints":                "count",
	"persist.checkpoint_total_s":         "s",
	"remote.decode_rows_per_s":           "1/s",
	"remote.member_serialize_rows_per_s": "1/s",
	"remote.scatter_gather_rows_per_s":   "1/s",
	"remote.local_equiv_rows_per_s":      "1/s",
	"remote.tax_ratio":                   "ratio",
	"remote.allocs_per_row":              "count",
	"admission.overhead_us":              "us",
	"admission.queue_wait_s":             "s",
	"obs.metrics_overhead_us":            "us",
	"obs.scrape_ms":                      "ms",
	"maintain.incremental_pass_40_ms":    "ms",
	"maintain.incremental_pass_340_ms":   "ms",
	"maintain.full_pass_ms":              "ms",
	"explore.index_ms":                   "ms",
	"explore.add_ms":                     "ms",
	"organize.knn_add_us":                "us",
	"enrich.rfd_ms":                      "ms",
	"clean.clams_ms":                     "ms",
	"explore.related_ms":                 "ms",
	"explore.join_column_ms":             "ms",
	"explore.populate_ms":                "ms",
	"explore.task_ms":                    "ms",
	"explore.recall_at_5":                "ratio",
	"trace.overhead_frac":                "ratio",
}

// layerMetrics collects what the traced run measures.
type layerMetrics struct {
	vals      map[string]metric
	notes     map[string]string
	attempted int
	errs      []error
}

func newLayerMetrics() *layerMetrics {
	return &layerMetrics{vals: map[string]metric{}, notes: map[string]string{}}
}

// set records one metric; the note says how it was taken (sample size,
// the base of a ratio).
func (m *layerMetrics) set(name string, v float64, note string, args ...any) {
	unit, ok := perLayerUnits[name]
	if !ok {
		panic("benchmark: unlisted per-layer metric " + name)
	}
	m.vals[name] = metric{Value: v, Unit: unit}
	m.notes[name] = fmt.Sprintf(note, args...)
}

// did counts one checked call into a layer and keeps its failure.
func (m *layerMetrics) did(err error) {
	m.attempted++
	if err != nil {
		m.errs = append(m.errs, err)
	}
}

// timeEach calls fn n times and returns each call's duration. The first
// error stops it.
func timeEach(n int, fn func(i int) error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return out, err
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	return time.Duration(median(seconds(ds)) * float64(time.Second))
}

// perSecond is count per median duration.
func perSecond(count int, ds []time.Duration) float64 {
	d := medianDur(ds)
	if d <= 0 {
		return 0
	}
	return float64(count) / d.Seconds()
}

// mallocsDuring reports the heap allocations fn makes.
func mallocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// discardWriter is the ResponseWriter the in-process ServeHTTP replay
// writes into: it counts bytes and keeps nothing.
type discardWriter struct {
	header http.Header
	status int
	bytes  int64
}

func newDiscardWriter() *discardWriter { return &discardWriter{header: http.Header{}} }

func (d *discardWriter) Header() http.Header { return d.header }
func (d *discardWriter) WriteHeader(code int) {
	if d.status == 0 {
		d.status = code
	}
}
func (d *discardWriter) Write(b []byte) (int, error) {
	if d.status == 0 {
		d.status = http.StatusOK
	}
	d.bytes += int64(len(b))
	return len(b), nil
}
func (d *discardWriter) Flush() {}

// scrape reads GET /v1/metrics and returns every unlabelled series (and
// histogram _sum/_count lines) by name.
func scrape(ctx context.Context, c *client) (map[string]float64, time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/metrics", nil)
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("X-Lake-User", c.user)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	took := time.Since(start)
	if err != nil {
		return nil, took, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, took, fmt.Errorf("GET /v1/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = f
		}
	}
	return out, took, sc.Err()
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
)

// ingestBody is the POST /v1/datasets request body.
type ingestBody struct {
	Path    string `json:"path"`
	Source  string `json:"source"`
	Content string `json:"content"`
}

// ingestOp posts one generated dataset. The op is tagged with the
// dataset's path so an acknowledgement can be held against the catalog
// afterwards.
func ingestOp(class string, s relSpec) (op, int) {
	csv := s.csv()
	body, err := json.Marshal(ingestBody{Path: s.path(), Source: "bench", Content: string(csv)})
	if err != nil {
		panic(err) // strings always marshal
	}
	return op{class: class, tag: s.path(), steps: []request{{
		method: http.MethodPost, path: "/v1/datasets", body: body, status: http.StatusCreated,
	}}}, len(csv)
}

// listDatasets walks GET /v1/datasets by cursor and returns every id.
func listDatasets(ctx context.Context, c *client) (map[string]bool, error) {
	ids := map[string]bool{}
	cursor := ""
	for {
		var page struct {
			Items []struct {
				ID string `json:"id"`
			} `json:"items"`
			NextCursor string `json:"next_cursor"`
		}
		path := "/v1/datasets"
		if cursor != "" {
			path += "?cursor=" + url.QueryEscape(cursor)
		}
		r := request{method: http.MethodGet, path: path, status: http.StatusOK,
			check: func(b []byte) error { return json.Unmarshal(b, &page) }}
		if _, err := c.exchange(ctx, &r); err != nil {
			return nil, err
		}
		for _, it := range page.Items {
			ids[it.ID] = true
		}
		if page.NextCursor == "" {
			return ids, nil
		}
		cursor = page.NextCursor
	}
}

func setupIngestDurable(ctx context.Context, e *env) (*fixture, error) {
	f := &fixture{}
	d, err := f.newLake(e, "ingest")
	if err != nil {
		return f, err
	}
	rng := e.rng(21)
	specs := map[string]relSpec{} // by path
	sizes := map[string]int{}
	// The lake the engineers post into already holds some datasets.
	for i := 0; i < e.sz.ingestPreload; i++ {
		s := newRelSpec(rng, fmt.Sprintf("pre_%05d", i), e.sz.ingestRows)
		if err := d.preload(ctx, s.path(), s.csv()); err != nil {
			return f, err
		}
		specs[s.path()] = s
	}
	base := d.userBytes
	have := e.sz.ingestPreload
	f.base = f.serve(d).URL
	n := e.count(e.sz.ingests)
	for c := 0; c < e.clients; c++ {
		build := func(kind string, count int) []op {
			ops := make([]op, count)
			for i := range ops {
				s := newRelSpec(rng, fmt.Sprintf("%s_c%d_%05d", kind, c, i), e.sz.ingestRows)
				ops[i], sizes[s.path()] = ingestOp("ingest", s)
				specs[s.path()] = s
			}
			return ops
		}
		f.warmup = append(f.warmup, script{ops: build("warm", 2)})
		f.scripts = append(f.scripts, script{ops: build("ing", n)})
	}
	for _, w := range f.warmup {
		for _, o := range w.ops {
			base += int64(sizes[o.tag])
			have++
		}
	}
	f.verify = func(ctx context.Context, c *client, res *phaseResult) (int, []error) {
		// No acknowledged write may be missing from the catalog.
		listed, err := listDatasets(ctx, c)
		if err != nil {
			return 1, []error{fmt.Errorf("list datasets: %w", err)}
		}
		checks, errs := 0, []error(nil)
		for _, s := range res.samples {
			if s.err != nil {
				continue
			}
			checks++
			if !listed[s.tag] {
				errs = append(errs, fmt.Errorf("acknowledged dataset %s is not listed", s.tag))
			}
		}
		return checks, errs
	}
	f.reopen = func(res *phaseResult) (string, int64, reopenCheck) {
		acked := make([]sample, 0, len(res.samples))
		for _, s := range res.samples {
			if s.err == nil {
				acked = append(acked, s)
			}
		}
		sort.Slice(acked, func(i, j int) bool { return acked[i].done < acked[j].done })
		bytes := base
		for _, s := range acked {
			bytes += int64(sizes[s.tag])
		}
		// The checksum statement reads the last dataset acknowledged, the
		// one a lost log tail would take first.
		last := specs[fmt.Sprintf("raw/pre_%05d.csv", 0)]
		if len(acked) > 0 {
			last = specs[acked[len(acked)-1].tag]
		}
		k := vMod / 2
		return d.dir, bytes, reopenCheck{
			datasets: have + len(acked),
			sql:      "SELECT id, v FROM rel:" + last.name + " WHERE v > " + strconv.Itoa(k),
			rows:     expectScan([]string{"id", "v"}, k, []relSpec{last}, nil).rows,
		}
	}
	return f, nil
}

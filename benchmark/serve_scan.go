package main

import (
	"context"
	"fmt"
	"strconv"
)

// scanK draws a "v > K" threshold near the middle of v's range: about
// half of a table matches, and the narrow band keeps the rows a run
// moves — and so its throughput — comparable from seed to seed.
func scanK(rng interface{ Intn(int) int }) int { return vMod/2 - 10 + rng.Intn(21) }

// serveData is serve_scan's corpus: two wide relational tables and a
// document collection, far larger than one 1024-row batch and far
// smaller than memory.
type serveData struct {
	a, b   relSpec
	events docSpec
}

func newServeData(e *env) serveData {
	rng := e.rng(1)
	return serveData{
		a:      newRelSpec(rng, "big_a", e.sz.bigRows),
		b:      newRelSpec(rng, "big_b", e.sz.bigRows),
		events: newDocSpec(rng, "events", e.sz.docs),
	}
}

// The four statement classes of serve_scan, also replayed by the traced
// run.
func (d serveData) scanOp(k int) op {
	cols := []string{"id", "v"}
	return queryOp("scan", fmt.Sprintf("SELECT id, v FROM rel:%s WHERE v > %d", d.a.name, k),
		expectScan(cols, k, []relSpec{d.a}, nil))
}

func (d serveData) topkOp() op {
	return queryOp("topk", fmt.Sprintf("SELECT * FROM rel:%s, rel:%s ORDER BY v DESC, id LIMIT 100", d.a.name, d.b.name),
		expectSequence(relColumns, topRows(relColumns, -1, 100, d.a, d.b)))
}

func (d serveData) shortOp(site int) op {
	matching := 0
	for i := 0; i < d.b.rows; i++ {
		if i%50 == site {
			matching++
		}
	}
	member := func(row []string) bool {
		if len(row) != 1 {
			return false
		}
		i := d.b.rowIndex(row[0])
		return i >= 0 && i%50 == site
	}
	return queryOp("short", fmt.Sprintf("SELECT id FROM rel:%s WHERE site = 's%d' LIMIT 10", d.b.name, site),
		expectLimited([]string{"id"}, matching, 10, member))
}

func (d serveData) mixedOp(k int) op {
	return queryOp("mixed", fmt.Sprintf("SELECT id, v FROM rel:%s, doc:%s WHERE v > %d", d.a.name, d.events.name, k),
		expectScan([]string{"id", "v"}, k, []relSpec{d.a}, &d.events))
}

// rotation is the 8-slot statement mix: five scans with their own
// thresholds, spaced out between one top-K, one short and one mixed
// statement.
func (d serveData) rotation(e *env) []op {
	rng := e.rng(2)
	return []op{
		d.scanOp(scanK(rng)),
		d.topkOp(),
		d.scanOp(scanK(rng)),
		d.shortOp(rng.Intn(50)),
		d.scanOp(scanK(rng)),
		d.mixedOp(scanK(rng)),
		d.scanOp(scanK(rng)),
		d.scanOp(scanK(rng)),
	}
}

// rotate returns the rotation started at slot by, so two clients are
// not in the same statement class in lockstep.
func rotate(rotation []op, by int) []op {
	by %= len(rotation)
	return append(append([]op(nil), rotation[by:]...), rotation[:by]...)
}

func setupServeScan(ctx context.Context, e *env) (*fixture, error) {
	f := &fixture{}
	data := newServeData(e)
	d, err := f.newLake(e, "serve")
	if err != nil {
		return f, err
	}
	for _, ds := range []struct {
		path string
		body []byte
	}{
		{data.a.path(), data.a.csv()},
		{data.b.path(), data.b.csv()},
		{data.events.path(), data.events.jsonl()},
	} {
		if err := d.preload(ctx, ds.path, ds.body); err != nil {
			return f, err
		}
	}
	f.base = f.serve(d).URL
	rotation := data.rotation(e)
	n := e.count(e.sz.serveRotations)
	for c := 0; c < e.clients; c++ {
		mine := rotate(rotation, c*len(rotation)/2)
		f.warmup = append(f.warmup, script{ops: mine})
		f.scripts = append(f.scripts, script{ops: repeatOps(mine, n)})
	}
	k := scanK(e.rng(3))
	chk := reopenCheck{
		datasets: 3,
		sql:      "SELECT id, v FROM rel:" + data.a.name + " WHERE v > " + strconv.Itoa(k),
		rows:     expectScan([]string{"id", "v"}, k, []relSpec{data.a}, nil).rows,
	}
	f.reopen = func(*phaseResult) (string, int64, reopenCheck) { return d.dir, d.userBytes, chk }
	return f, nil
}

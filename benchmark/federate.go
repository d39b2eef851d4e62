package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"golake/internal/core"
	"golake/internal/remote"
)

// fedData is federate's corpus: one table on each of two member lakes.
type fedData struct {
	a, b relSpec // a lives on member east, b on member west
}

func newFedData(e *env) fedData {
	rng := e.rng(11)
	return fedData{
		a: newRelSpec(rng, "fed_a", e.sz.fedRows),
		b: newRelSpec(rng, "fed_b", e.sz.fedRows),
	}
}

func (d fedData) from() string { return "east:" + d.a.name + ", west:" + d.b.name }

// The three statement classes of federate, all through the coordinator.
func (d fedData) scatterOp(k int) op {
	return queryOp("scatter", fmt.Sprintf("SELECT id, v FROM %s WHERE v > %d", d.from(), k),
		expectScan([]string{"id", "v"}, k, []relSpec{d.a, d.b}, nil))
}

func (d fedData) topkOp(k int) op {
	cols := []string{"id", "v"}
	return queryOp("fed_topk", fmt.Sprintf("SELECT id, v FROM %s WHERE v > %d ORDER BY v DESC, id LIMIT 100", d.from(), k),
		expectSequence(cols, topRows(cols, k, 100, d.a, d.b)))
}

func (d fedData) limitOp(k int) op {
	cols := []string{"id", "v"}
	member := func(row []string) bool {
		if len(row) != 2 {
			return false
		}
		for _, t := range []relSpec{d.a, d.b} {
			if i := t.rowIndex(row[0]); i >= 0 {
				return t.v(i) > k && strconv.Itoa(t.v(i)) == row[1]
			}
		}
		return false
	}
	return queryOp("fed_limit", fmt.Sprintf("SELECT id, v FROM %s WHERE v > %d LIMIT 10", d.from(), k),
		expectLimited(cols, expectScan(cols, k, []relSpec{d.a, d.b}, nil).rows, 10, member))
}

func (d fedData) rotation(e *env) []op {
	rng := e.rng(12)
	return []op{
		d.scatterOp(scanK(rng)),
		d.topkOp(scanK(rng)),
		d.scatterOp(scanK(rng)),
		d.scatterOp(scanK(rng)),
		d.limitOp(scanK(rng)),
		d.scatterOp(scanK(rng)),
		d.topkOp(scanK(rng)),
		d.scatterOp(scanK(rng)),
	}
}

// fedLakes is the three-lake federation: two served members and a
// coordinator that holds no data of its own.
type fedLakes struct {
	east, west, coordinator *deployment
	base                    string // the coordinator's server
}

func openFederation(ctx context.Context, e *env, f *fixture, data fedData) (*fedLakes, error) {
	fl := &fedLakes{}
	var err error
	if fl.east, err = f.newLake(e, "east"); err != nil {
		return nil, err
	}
	if fl.west, err = f.newLake(e, "west"); err != nil {
		return nil, err
	}
	if err := fl.east.preload(ctx, data.a.path(), data.a.csv()); err != nil {
		return nil, err
	}
	if err := fl.west.preload(ctx, data.b.path(), data.b.csv()); err != nil {
		return nil, err
	}
	ropts := remote.Options{Timeout: time.Minute}
	fl.coordinator, err = f.newLake(e, "coordinator",
		core.WithRemoteStore("east", f.serve(fl.east).URL, ropts),
		core.WithRemoteStore("west", f.serve(fl.west).URL, ropts))
	if err != nil {
		return nil, err
	}
	fl.base = f.serve(fl.coordinator).URL
	return fl, nil
}

func setupFederate(ctx context.Context, e *env) (*fixture, error) {
	f := &fixture{}
	data := newFedData(e)
	fl, err := openFederation(ctx, e, f, data)
	if err != nil {
		return f, err
	}
	f.base = fl.base
	rotation := data.rotation(e)
	n := e.count(e.sz.fedRotations)
	for c := 0; c < e.clients; c++ {
		mine := rotate(rotation, c*len(rotation)/2)
		f.warmup = append(f.warmup, script{ops: mine})
		f.scripts = append(f.scripts, script{ops: repeatOps(mine, n)})
	}
	k := scanK(e.rng(13))
	chk := reopenCheck{
		datasets: 1,
		sql:      "SELECT id, v FROM rel:" + data.a.name + " WHERE v > " + strconv.Itoa(k),
		rows:     expectScan([]string{"id", "v"}, k, []relSpec{data.a}, nil).rows,
	}
	east := fl.east
	f.reopen = func(*phaseResult) (string, int64, reopenCheck) { return east.dir, east.userBytes, chk }
	return f, nil
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"time"

	"golake/internal/query"
	"golake/internal/remote"
)

// layersFed takes the federated hop apart on federate's fixture: the
// remote client's decode alone (against a server that replays canned
// bytes), a member's serialization alone (raw POST, body discarded), the
// coordinator's scatter-gather without its own HTTP layer, and the same
// statement over the same data co-located in one lake.
func layersFed(ctx context.Context, e *env, m *layerMetrics, iters int) error {
	f := &fixture{}
	defer f.remove()
	defer f.stop()
	data := newFedData(e)
	fl, err := openFederation(ctx, e, f, data)
	if err != nil {
		return err
	}
	k := scanK(e.rng(14))
	exp := expectScan([]string{"id", "v"}, k, []relSpec{data.a, data.b}, nil)
	user := users[0].name
	where := " WHERE v > " + strconv.Itoa(k)

	// Member-side serialize: what east alone streams for its share.
	eastExp := expectScan([]string{"id", "v"}, k, []relSpec{data.a}, nil)
	eastURL := f.servers[0].URL
	eastSQL := "SELECT id, v FROM " + data.a.name + where
	body := []byte(fmt.Sprintf(`{"sql":%q}`, eastSQL))
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	var canned []byte
	ds, err := timeEach(iters, func(int) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, eastURL+"/v1/query", bytes.NewReader(body))
		if err != nil {
			return err
		}
		req.Header.Set("X-Lake-User", user)
		req.Header.Set("Accept", ndjsonAccept)
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("member POST /v1/query: status %d", resp.StatusCode)
		}
		if canned == nil {
			// The first answer is kept as the canned stream below.
			canned, err = io.ReadAll(resp.Body)
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	})
	m.did(err)
	m.set("remote.member_serialize_rows_per_s", perSecond(eastExp.rows, ds),
		"raw POST /v1/query to one member, body discarded, %d rows, median of %d", eastExp.rows, len(ds))

	// Client decode alone: the same bytes served from memory.
	cannedSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ndjsonAccept)
		_, _ = w.Write(canned)
	}))
	defer cannedSrv.Close()
	rc := remote.New("canned", cannedSrv.URL, remote.Options{Timeout: time.Minute})
	defer rc.CloseIdle()
	ds, err = timeEach(iters, func(int) error {
		it, err := rc.OpenStream(ctx, query.RemoteSpec{SQL: eastSQL, User: user})
		if err != nil {
			return err
		}
		defer it.Close()
		n := 0
		for {
			_, err := it.Next(ctx)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return err
			}
			n++
		}
		return rowCountErr("remote decode", n, eastExp.rows, nil)
	})
	m.did(err)
	m.set("remote.decode_rows_per_s", perSecond(eastExp.rows, ds),
		"remote.Client.OpenStream drained against canned NDJSON, %d rows, median of %d", eastExp.rows, len(ds))

	// Scatter-gather through the coordinator, no coordinator HTTP.
	fedSQL := "SELECT id, v FROM " + data.from() + where
	var fedTimes []time.Duration
	allocs := mallocsDuring(func() {
		fedTimes, err = timeEach(iters, func(int) error {
			st, err := fl.coordinator.lake.Query(ctx, user, query.Request{SQL: fedSQL})
			if err != nil {
				return err
			}
			n, err := drain(ctx, st)
			return rowCountErr("scatter-gather", n, exp.rows, err)
		})
	})
	m.did(err)
	fedRate := perSecond(exp.rows, fedTimes)
	m.set("remote.scatter_gather_rows_per_s", fedRate, "coordinator Lake.Query drained, %d rows from 2 members, median of %d", exp.rows, len(fedTimes))
	if len(fedTimes) > 0 {
		m.set("remote.allocs_per_row", float64(allocs)/float64(exp.rows*len(fedTimes)),
			"%d mallocs (coordinator, members and transport share the process) / %d rows", allocs, exp.rows*len(fedTimes))
	}

	// The same data co-located.
	local, err := f.newLake(e, "colocated")
	if err != nil {
		return err
	}
	for _, t := range []relSpec{data.a, data.b} {
		if err := local.preload(ctx, t.path(), t.csv()); err != nil {
			return err
		}
	}
	localSQL := "SELECT id, v FROM rel:" + data.a.name + ", rel:" + data.b.name + where
	ds, err = timeEach(iters, func(int) error {
		st, err := local.lake.Query(ctx, user, query.Request{SQL: localSQL})
		if err != nil {
			return err
		}
		n, err := drain(ctx, st)
		return rowCountErr("co-located", n, exp.rows, err)
	})
	m.did(err)
	localRate := perSecond(exp.rows, ds)
	m.set("remote.local_equiv_rows_per_s", localRate, "same statement, both tables in one lake, Lake.Query drained, median of %d", len(ds))
	if fedRate > 0 {
		m.set("remote.tax_ratio", localRate/fedRate, "co-located %.0f rows/s / federated %.0f rows/s", localRate, fedRate)
	}
	return nil
}

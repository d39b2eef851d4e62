package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"golake/internal/extract"
	"golake/internal/persist"
	"golake/internal/storage/polystore"
	"golake/internal/table"
)

// walPayload is the shape of the record the lake logs for one ingest:
// JSON with the dataset's bytes base64-encoded. The persist probes frame
// this rather than a bare byte string so their frame is the size a real
// ingest appends.
type walPayload struct {
	Kind   string `json:"kind"`
	Path   string `json:"path"`
	Data   []byte `json:"data"`
	Source string `json:"source"`
	User   string `json:"user"`
}

// layersIngest prices the write path: each function an ingest passes
// through, called alone on one ingest_durable body; then a short
// two-client ingest phase whose WAL and checkpoint counters are read
// from /v1/metrics; then a reopen of that lake's directory.
func layersIngest(ctx context.Context, e *env, m *layerMetrics, iters int) error {
	rng := rand.New(rand.NewSource(e.seed))
	spec := newRelSpec(rng, "probe", e.sz.ingestRows)
	csv := spec.csv()
	rows := spec.rows
	mb := func(n int) float64 { return float64(n) / (1 << 20) }

	// table, extract, polystore: the three functions that each parse the
	// body once.
	ds, err := timeEach(iters, func(int) error { _, err := table.ParseCSV(spec.name, string(csv)); return err })
	m.did(err)
	m.set("table.parse_csv_rows_per_s", perSecond(rows, ds), "table.ParseCSV, %d-row body, median of %d", rows, len(ds))

	ds, err = timeEach(iters, func(int) error { _, err := extract.Extract(spec.path(), csv); return err })
	m.did(err)
	extractMS := ms(medianDur(ds))
	m.set("extract.extract_us", us(medianDur(ds)), "extract.Extract, %d-row body, median of %d", rows, len(ds))

	polyDir, err := os.MkdirTemp(e.workdir, "poly-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(polyDir)
	poly, err := polystore.New(polyDir)
	if err != nil {
		return err
	}
	ds, err = timeEach(iters, func(i int) error { _, err := poly.Ingest(fmt.Sprintf("raw/p_%05d.csv", i), csv); return err })
	m.did(err)
	polyMS := ms(medianDur(ds))
	m.set("polystore.ingest_rows_per_s", perSecond(rows, ds), "Poly.Ingest, %d-row body, median of %d", rows, len(ds))

	// persist: frame, append under both sync policies, checkpoint, decode.
	payload, err := json.Marshal(walPayload{Kind: "ingest", Path: spec.path(), Data: csv, Source: "bench", User: users[0].name})
	if err != nil {
		return err
	}
	var frame []byte
	ds, _ = timeEach(iters*4, func(int) error { frame = persist.EncodeFrame(payload); return nil })
	m.set("persist.encode_frame_mb_per_s", mb(len(frame))/medianDur(ds).Seconds(), "EncodeFrame, %d-byte payload, median of %d", len(payload), len(ds))

	appendUS := map[persist.Sync]float64{}
	for _, pol := range []persist.Sync{persist.SyncNone, persist.SyncAlways} {
		dir, err := os.MkdirTemp(e.workdir, "wal-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		local, err := persist.NewLocal(dir, persist.WithSync(pol))
		if err != nil {
			return err
		}
		ds, err = timeEach(iters*2, func(int) error { return local.AppendWAL(frame) })
		m.did(err)
		appendUS[pol] = us(medianDur(ds))
		if pol == persist.SyncAlways {
			// Decode what was just appended, then checkpoint over it.
			var logBytes int
			ds, err = timeEach(10, func(int) error {
				log, err := local.ReadWAL()
				if err != nil {
					return err
				}
				logBytes = len(log)
				if got, torn := persist.DecodeFrames(log); len(got) != iters*2 || torn != 0 {
					return fmt.Errorf("decoded %d frames (%d torn bytes), want %d", len(got), torn, iters*2)
				}
				return nil
			})
			m.did(err)
			m.set("persist.decode_mb_per_s", mb(logBytes)/medianDur(ds).Seconds(), "ReadWAL + DecodeFrames over a %d-byte log, median of %d", logBytes, len(ds))
			snapshot := make([]byte, 8<<20)
			for i := range snapshot {
				snapshot[i] = payload[i%len(payload)]
			}
			ds, err = timeEach(5, func(int) error { return local.Checkpoint(snapshot) })
			m.did(err)
			m.set("persist.checkpoint_ms_per_mb", ms(medianDur(ds))/mb(len(snapshot)), "Local.Checkpoint of an 8 MiB snapshot, SyncAlways, median of %d", len(ds))
		}
		m.did(local.Close())
	}
	m.set("persist.append_nosync_us", appendUS[persist.SyncNone], "Local.AppendWAL, %d-byte frame, SyncNone, median of %d", len(frame), iters*2)
	m.set("persist.append_fsync_us", appendUS[persist.SyncAlways], "Local.AppendWAL, %d-byte frame, SyncAlways, median of %d", len(frame), iters*2)

	// core: Lake.Ingest whole, on the deployment under test.
	f := &fixture{}
	defer f.remove()
	defer f.stop()
	d, err := f.newLake(e, "ingest-probe")
	if err != nil {
		return err
	}
	ds, err = timeEach(iters, func(i int) error {
		_, err := d.lake.Ingest(ctx, fmt.Sprintf("raw/li_%05d.csv", i), csv, "bench", users[0].name)
		return err
	})
	m.did(err)
	ingestMS := ms(medianDur(ds))
	m.set("core.ingest_ms", ingestMS, "Lake.Ingest, %d-row body, fsync per record, median of %d", rows, len(ds))
	// Poly.Ingest and Extract each parse the body themselves, so the
	// parse is inside their figures and not subtracted again. An ingest
	// logs two records, the dataset and its provenance event; the second
	// is small, so its cost is mostly the fsync, taken here as one more
	// append.
	walMS := 2 * appendUS[persist.SyncAlways] / 1000
	m.set("core.ingest_self_ms", ingestMS-polyMS-extractMS-walMS,
		"Lake.Ingest %.3f - Poly.Ingest %.3f - Extract %.3f - two fsynced appends %.3f ms", ingestMS, polyMS, extractMS, walMS)
	f.stop()

	return layersIngestPhase(ctx, e, m)
}

// layersIngestPhase runs a shortened ingest_durable phase and reads the
// persistence counters the lake publishes, then times core.Open on the
// directory the phase left behind.
func layersIngestPhase(ctx context.Context, e *env, m *layerMetrics) error {
	short := *e
	short.seconds = e.seconds / 3
	w, _ := workloadByName("ingest_durable")
	f, cs, _, warmed, err := setUp(ctx, w, &short, nil, 1)
	if err != nil {
		return err
	}
	defer f.remove()
	defer f.stop()
	defer closeClients(cs)
	for _, s := range warmed {
		m.did(s.err)
	}
	before, _, err := scrape(ctx, cs[0])
	m.did(err)
	res := runPhase(ctx, cs, f.scripts)
	after, _, err := scrape(ctx, cs[0])
	m.did(err)
	acked := 0
	for _, s := range res.samples {
		m.did(s.err)
		if s.err == nil {
			acked++
		}
	}
	dir, userBytes, chk := f.reopen(&res)
	delta := func(name string) float64 { return after[name] - before[name] }
	// userBytes includes what set-up ingested before the first scrape;
	// the phase's own share is one body per acknowledged op.
	phaseBytes := float64(acked) * float64(userBytes) / float64(chk.datasets)
	if acked > 0 {
		m.set("persist.fsyncs_per_ingest", delta("golake_wal_appends_total")/float64(acked),
			"golake_wal_appends_total over %d acknowledged ingests", acked)
		m.set("persist.wal_bytes_per_user_byte", delta("golake_wal_appended_bytes_total")/phaseBytes,
			"golake_wal_appended_bytes_total / %.0f user bytes", phaseBytes)
	}
	m.set("persist.checkpoints", delta("golake_checkpoints_total"), "golake_checkpoints_total over the phase")
	m.set("persist.checkpoint_total_s", delta("golake_checkpoint_duration_seconds_sum"), "golake_checkpoint_duration_seconds_sum over the phase")

	closeClients(cs)
	f.stop()
	start := time.Now()
	reopened, err := openDeployment(dir)
	took := time.Since(start)
	m.did(err)
	if err == nil {
		if got := len(reopened.lake.Catalog.List()); got != chk.datasets {
			m.did(fmt.Errorf("reopened lake lists %d datasets, want %d", got, chk.datasets))
		}
		_ = reopened.backend.Close()
		stored := reopened.storedAtOpen
		m.set("core.open_ms_per_mb", ms(took)/(float64(stored)/(1<<20)), "core.Open over %d stored bytes (snapshot + log), %d datasets, once", stored, chk.datasets)
	}
	return nil
}

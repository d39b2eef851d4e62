package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"golake/internal/admission"
	"golake/internal/core"
	"golake/internal/persist"
	"golake/internal/query"
)

// The deployment under test is the same for every workload: a durable
// lake on a local directory, fsync on every WAL record, a checkpoint per
// 4 MiB of log, admission control with limits a correct run never
// reaches, metrics on, fan-in and batch size at their defaults; served
// by an httptest server inside the benchmark's process.
const (
	snapshotEvery    = 4 << 20
	admitMaxInFlight = 64
	admitPerUser     = 8
)

// The identities the clients act under. Client i is users[i].
var users = []struct {
	name string
	role core.Role
}{
	{"ana", core.RoleDataScientist},
	{"ben", core.RoleDataScientist},
}

func admissionConfig() admission.Config {
	return admission.Config{MaxInFlight: admitMaxInFlight, MaxConcurrentPerUser: admitPerUser}
}

const deploymentStamp = "persist.Local SyncAlways, snapshot every 4 MiB, admission 64 in flight / 8 per user, metrics on, default fan-in and batch; httptest server in-process"

// deployment is one lake of the deployment under test and the backend
// it persists to.
type deployment struct {
	dir     string
	lake    *core.Lake
	backend *persist.Local
	// userBytes counts the bytes of every dataset body ingested, the
	// denominator of disk_amp.
	userBytes int64
	// storedAtOpen is the size of the snapshot and log Open replayed.
	storedAtOpen int64
}

// openDeployment opens (or reopens) the lake rooted at dir. A fresh
// lake gets the client identities registered; a reopened one replays
// them from its log.
func openDeployment(dir string, extra ...core.Option) (*deployment, error) {
	backend, err := persist.NewLocal(filepath.Join(dir, ".golake"), persist.WithSync(persist.SyncAlways))
	if err != nil {
		return nil, err
	}
	snap, err := backend.SnapshotSize()
	if err != nil {
		return nil, err
	}
	wal, err := backend.WALSize()
	if err != nil {
		return nil, err
	}
	opts := append([]core.Option{
		core.WithPersistence(backend),
		core.WithSnapshotEvery(snapshotEvery),
		core.WithAdmission(admissionConfig()),
	}, extra...)
	lake, err := core.Open(dir, opts...)
	if err != nil {
		_ = backend.Close()
		return nil, err
	}
	if snap+wal == 0 {
		for _, u := range users {
			lake.AddUser(u.name, u.role)
		}
	}
	return &deployment{dir: dir, lake: lake, backend: backend, storedAtOpen: snap + wal}, nil
}

// preload ingests a dataset through the Go API, as set-up does before
// any client connects.
func (d *deployment) preload(ctx context.Context, path string, data []byte) error {
	if _, err := d.lake.Ingest(ctx, path, data, "preload", users[0].name); err != nil {
		return fmt.Errorf("preload %s: %w", path, err)
	}
	d.userBytes += int64(len(data))
	return nil
}

// drain pulls a query stream to its end through the columnar face when
// the stream has one, the way the NDJSON writer does, and returns the
// rows delivered.
func drain(ctx context.Context, st *query.RowStream) (int, error) {
	defer st.Close()
	n := 0
	if st.BatchOutput() {
		for {
			b, err := st.NextBatch(ctx)
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			if err != nil {
				return n, err
			}
			n += b.Len()
		}
	}
	for {
		_, err := st.Next(ctx)
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// reopenCheck is what a reopened lake must still answer: how many
// datasets its catalog lists and the row count of one statement whose
// answer the generator knows.
type reopenCheck struct {
	datasets int
	sql      string
	rows     int
}

// reopenOnce opens the directory the way a restarted process would —
// fresh backend handle, core.Open replaying snapshot and log — and has
// the lake answer: one LIMIT 1 query, the dataset count, the checksum
// statement. The clock stops after the last of them.
func reopenOnce(ctx context.Context, dir string, chk reopenCheck) (*deployment, time.Duration, error) {
	start := time.Now()
	d, err := openDeployment(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("reopen: %w", err)
	}
	verify := func() error {
		st, err := d.lake.Query(ctx, users[0].name, query.Request{SQL: chk.sql, Limit: 1})
		if err != nil {
			return fmt.Errorf("reopen LIMIT 1 query: %w", err)
		}
		if n, err := drain(ctx, st); err != nil || n != 1 {
			return fmt.Errorf("reopen LIMIT 1 query: %d rows, err %v", n, err)
		}
		if got := len(d.lake.Catalog.List()); got != chk.datasets {
			return fmt.Errorf("reopened lake lists %d datasets, want %d", got, chk.datasets)
		}
		st, err = d.lake.Query(ctx, users[0].name, query.Request{SQL: chk.sql})
		if err != nil {
			return fmt.Errorf("reopen checksum query: %w", err)
		}
		if n, err := drain(ctx, st); err != nil || n != chk.rows {
			return fmt.Errorf("reopen checksum query %q: %d rows, want %d, err %v", chk.sql, n, chk.rows, err)
		}
		return nil
	}
	err = verify()
	return d, time.Since(start), err
}

// measureReopen abandons the served lake without Close — the process
// "died" with its log fsynced but no final checkpoint — and reopens the
// directory n times, each time abandoning the previous handle the same
// way. It returns the reopen times, the number of failed verifications,
// and disk_amp: after the last reopen that lake is closed (final
// checkpoint) and the backend's bytes are held against the user bytes
// ingested.
func measureReopen(ctx context.Context, dir string, n int, userBytes int64, chk reopenCheck) (times []timing, failed int, diskAmp float64, firstErr error) {
	var last *deployment
	for i := 0; i < n; i++ {
		// A restarted process starts with an empty heap: collect the
		// abandoned lake first, outside the clock.
		runtime.GC()
		start := time.Now()
		d, took, err := reopenOnce(ctx, dir, chk)
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
		}
		if d == nil {
			continue
		}
		times = append(times, timing{start, took})
		if last != nil {
			_ = last.backend.Close() // abandoned: no checkpoint, only the handle
		}
		last = d
	}
	if last == nil {
		return times, failed, 0, firstErr
	}
	if err := last.lake.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("close reopened lake: %w", err)
		failed++
	}
	snap, err := last.backend.SnapshotSize()
	if err != nil && firstErr == nil {
		firstErr = err
	}
	wal, err := last.backend.WALSize()
	if err != nil && firstErr == nil {
		firstErr = err
	}
	stored := snap + wal
	if userBytes > 0 {
		diskAmp = float64(stored) / float64(userBytes)
	}
	return times, failed, diskAmp, firstErr
}

// Command lakectl drives a golake data lake from the shell. Each
// invocation assembles a lake over a data directory (every regular
// file under -data is ingested), runs the maintenance tier, then
// executes one command:
//
//	lakectl -data DIR profile                 per-file extraction summary
//	lakectl -data DIR catalog                 catalog entries
//	lakectl -data DIR discover TABLE [K]      related tables (populate mode)
//	lakectl -data DIR join TABLE COLUMN [K]   joinable tables on a column
//	lakectl -data DIR query 'SQL'             federated query, CSV streamed to stdout
//	lakectl -data DIR -order price:desc query 'SQL'   ORDER BY passthrough
//	lakectl -data DIR -explain query 'SQL'    typed plan, nothing executed
//	lakectl -data DIR swamp                   metadata-coverage audit
//	lakectl -data DIR lineage ENTITY          upstream provenance
//	lakectl -data DIR status                  maintenance + durability status
//	lakectl -data DIR -metrics status         + the Prometheus metrics dump
//	lakectl -data DIR serve [ADDR]            REST v1 API server
//	lakectl -data DIR -pprof :6060 serve      + net/http/pprof on a side port
//	lakectl registry                          the Table 1 function registry
//	lakectl demo                              synthetic end-to-end walkthrough
//
// With -auto-maintain INTERVAL, serve runs background maintenance:
// data ingested over POST /v1/datasets becomes explorable without an
// operator-triggered pass (status on GET /v1/maintenance).
//
// With -persist, the lake's logical state (users, derived tables,
// audit trails, index coverage) survives across invocations in
// DIR/.golake via WAL, manifest and segments: a rerun replays the
// previous state, ingests only files not already cataloged, and
// maintenance resumes incrementally instead of re-indexing the corpus.
// -fsync additionally fsyncs every WAL append and segment put.
//
// Federated queries fan in by default: member-store sources are
// drained in parallel (one puller per CPU) behind bounded per-source
// buffers, and an ORDER BY — in the SQL or via -order — keeps the
// output order deterministic at any width. -fanin pins the width
// (-fanin 1 forces the sequential union), -fanin-buffer sizes the
// per-source window, -batch-rows sizes the columnar batches the
// pipeline moves (0 = engine default), -explain prints the typed plan
// without running,
// and -stats prints per-source execution counters and the trace spans
// (plan, open-sources, execute, sort) to stderr after the query. The
// flags build one query.Request behind the scenes.
//
// Operability: the server exports Prometheus metrics at GET
// /v1/metrics (status -metrics prints the same dump locally), tags
// every response with an X-Request-ID, and -pprof ADDR serves the
// net/http/pprof profiling handlers on a separate listener so
// profiling stays off the data-plane port.
//
// Resilience: -timeout and -memory-budget bound one query's wall-clock
// time and buffered-row footprint (typed deadline_exceeded /
// resource_exhausted failures when exceeded). In serve mode,
// -max-concurrent and -rate put an admission controller in front of
// POST /v1/query — shed queries return HTTP 429 with a Retry-After
// header — and -shutdown-grace bounds how long a SIGINT/SIGTERM drain
// waits for in-flight requests before the process exits.
//
// Federation: each -remote NAME=URL (repeatable) registers another
// golake as a remote member store, so queries address its datasets as
// "NAME:dataset" and scatter-gather across members through the same
// fan-in that drains local scans. -remote-token forwards a bearer token
// on every remote hop, -remote-route resolves bare dataset names
// through a consistent-hash ring over the members, and -shards K
// range-partitions each local relational scan into K parallel cursors.
package main

import (
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"golake"
	"golake/internal/core"
	"golake/internal/explore"
	"golake/internal/table"
	"golake/internal/workload"
)

func main() {
	dataDir := flag.String("data", "", "directory of raw files to ingest")
	user := flag.String("user", "cli", "acting user")
	autoMaintain := flag.Duration("auto-maintain", 0,
		"run background maintenance at this interval (serve mode; 0 disables)")
	persistFlag := flag.Bool("persist", false,
		"persist lake state across invocations in DATA/.golake (WAL, manifest, segments)")
	fsync := flag.Bool("fsync", false,
		"with -persist, fsync every WAL append (crash-durable, slower)")
	fanIn := flag.Int("fanin", 0,
		"federated-query fan-in width (0 = one puller per CPU, 1 = sequential)")
	fanInBuffer := flag.Int("fanin-buffer", 0,
		"per-source fan-in buffer in rows (0 = default)")
	batchRows := flag.Int("batch-rows", 0,
		"rows per columnar batch for federated queries (0 = engine default)")
	orderBy := flag.String("order", "",
		"ORDER BY passthrough for query: col[:desc][,col...]")
	explain := flag.Bool("explain", false,
		"print the typed query plan instead of executing")
	stats := flag.Bool("stats", false,
		"print per-source execution stats and trace spans to stderr after a query")
	metricsFlag := flag.Bool("metrics", false,
		"with status, also dump the lake's metrics in Prometheus text format")
	pprofAddr := flag.String("pprof", "",
		"with serve, expose net/http/pprof on this address (e.g. localhost:6060)")
	queryTimeout := flag.Duration("timeout", 0,
		"query deadline (0 = none); an exceeded deadline fails the query with a typed deadline_exceeded error")
	memBudget := flag.Int("memory-budget", 0,
		"per-query buffered-row budget (0 = unlimited); exceeding it fails with resource_exhausted")
	maxConcurrent := flag.Int("max-concurrent", 0,
		"serve: per-user concurrent-query quota (0 = off); over-quota queries shed with HTTP 429 + Retry-After")
	rateLimit := flag.Float64("rate", 0,
		"serve: per-user query rate limit in queries/sec (0 = off)")
	shutdownGrace := flag.Duration("shutdown-grace", 10*time.Second,
		"serve: drain window for in-flight requests on SIGINT/SIGTERM")
	var remotes multiFlag
	flag.Var(&remotes, "remote",
		"federate a remote member lake as NAME=URL (repeatable); query its datasets as NAME:dataset")
	remoteToken := flag.String("remote-token", "",
		"bearer token forwarded on every remote member hop (Authorization: Bearer)")
	remoteRoute := flag.Bool("remote-route", false,
		"route bare dataset names to remote members via consistent hashing")
	shards := flag.Int("shards", 0,
		"range-partition each relational scan into N parallel shard cursors (0 = off)")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cmd := args[0]
	switch cmd {
	case "registry":
		printRegistry()
		return
	case "demo":
		if err := demo(ctx); err != nil {
			fatal(err)
		}
		return
	}
	if *dataDir == "" {
		fatal(fmt.Errorf("command %q needs -data DIR", cmd))
	}
	remoteOpts, err := parseRemoteFlags(remotes, *remoteToken)
	if err != nil {
		fatal(err)
	}
	if *remoteRoute {
		remoteOpts = append(remoteOpts, golake.WithRemoteRouting(true))
	}
	lake, err := loadLake(ctx, *dataDir, *user, *autoMaintain, *fanIn, *fanInBuffer, *persistFlag, *fsync, *maxConcurrent, *rateLimit, remoteOpts)
	if err != nil {
		fatal(err)
	}
	defer lake.Close()
	qf := queryFlags{
		fanIn: *fanIn, bufferRows: *fanInBuffer, batchRows: *batchRows,
		shards: *shards,
		order:  *orderBy, explain: *explain, stats: *stats,
		metrics: *metricsFlag, pprofAddr: *pprofAddr,
		timeout: *queryTimeout, memoryRows: *memBudget,
		shutdownGrace: *shutdownGrace,
	}
	if err := dispatch(ctx, lake, *user, cmd, args[1:], qf); err != nil {
		fatal(err)
	}
}

// queryFlags bundles the per-command flags: the query knobs folded
// into one query.Request, plus the status/serve operability switches.
type queryFlags struct {
	fanIn, bufferRows int
	batchRows         int
	shards            int
	order             string
	explain, stats    bool
	metrics           bool
	pprofAddr         string
	timeout           time.Duration
	memoryRows        int
	shutdownGrace     time.Duration
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lakectl [-data DIR] [-user NAME] [-persist] [-fsync] [-auto-maintain 5s] [-fanin N] [-fanin-buffer ROWS] [-batch-rows ROWS] [-shards N] [-order COLS] [-timeout DUR] [-memory-budget ROWS] [-max-concurrent N] [-rate QPS] [-shutdown-grace DUR] [-remote NAME=URL] [-remote-token TOKEN] [-remote-route] [-explain] [-stats] [-metrics] [-pprof ADDR] COMMAND [ARGS]")
	fmt.Fprintln(os.Stderr, "commands: profile catalog discover join query swamp lineage status serve registry demo")
	os.Exit(2)
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// parseRemoteFlags turns -remote NAME=URL registrations into lake
// options; the shared -remote-token rides along on every member.
func parseRemoteFlags(remotes []string, token string) ([]golake.Option, error) {
	var opts []golake.Option
	for _, spec := range remotes {
		name, url, ok := strings.Cut(spec, "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("-remote: want NAME=URL, got %q", spec)
		}
		opts = append(opts, golake.WithRemoteStore(name, url, golake.RemoteOptions{Token: token}))
	}
	return opts, nil
}

// loadLake bulk-ingests every regular file under dir and brings the
// lake up to date. With persist, durability files live in dir/.golake:
// a rerun replays the previous invocation's state, files already
// cataloged are skipped, and the maintenance pass resumes
// incrementally over just the new data.
func loadLake(ctx context.Context, dir, user string, autoMaintain time.Duration, fanIn, fanInBuffer int, persistLake, fsync bool, maxConcurrent int, rateLimit float64, extra []golake.Option) (*golake.Lake, error) {
	workdir, err := os.MkdirTemp("", "golake-lakectl-*")
	if err != nil {
		return nil, err
	}
	opts := []golake.Option{
		golake.WithLogger(slog.New(slog.NewTextHandler(os.Stderr, nil))),
	}
	opts = append(opts, extra...)
	if autoMaintain > 0 {
		opts = append(opts, golake.WithAutoMaintain(autoMaintain))
	}
	if maxConcurrent > 0 || rateLimit > 0 {
		opts = append(opts, golake.WithAdmission(golake.AdmissionConfig{
			MaxConcurrentPerUser: maxConcurrent,
			RatePerSec:           rateLimit,
			MaxQueueWait:         2 * time.Second,
		}))
	}
	if fanIn > 0 || fanInBuffer > 0 {
		// Pins the lake-level default (what serve-mode HTTP queries
		// inherit); the query command threads the same flags through
		// its per-request query.Request instead.
		opts = append(opts, golake.WithFanIn(fanIn, fanInBuffer))
	}
	if persistLake {
		sync := golake.SyncNone
		if fsync {
			sync = golake.SyncAlways
		}
		backend, err := golake.NewLocalBackend(filepath.Join(dir, ".golake"), golake.WithSync(sync))
		if err != nil {
			return nil, err
		}
		opts = append(opts, golake.WithPersistence(backend))
	}
	lake, err := golake.Open(workdir, opts...)
	if err != nil {
		return nil, err
	}
	lake.AddUser(user, golake.RoleDataScientist)
	lake.AddUser(user+"-gov", golake.RoleGovernance)
	var items []golake.IngestItem
	err = filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The lake's own durability files are not data.
			if d.Name() == ".golake" {
				return fs.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		path := filepath.ToSlash(rel)
		// A persistent lake already restored earlier invocations'
		// ingests; re-ingesting them would conflict.
		if _, err := lake.Catalog.Entry(path); err == nil {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		items = append(items, golake.IngestItem{
			Path: path, Data: data, Source: "filesystem",
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	if _, err := lake.IngestBatch(ctx, user, items); err != nil {
		return nil, err
	}
	// Incremental when the restored coverage allows it (a fresh lake's
	// first pass still plans full); an up-to-date restored lake skips
	// the pass entirely.
	if lake.Stale() {
		if _, err := lake.MaintainIncremental(ctx); err != nil {
			return nil, err
		}
	}
	return lake, nil
}

func dispatch(ctx context.Context, lake *golake.Lake, user, cmd string, args []string, qf queryFlags) error {
	switch cmd {
	case "profile":
		return profile(lake)
	case "catalog":
		return catalog(lake)
	case "discover":
		if len(args) < 1 {
			return fmt.Errorf("discover needs TABLE")
		}
		return discover(ctx, lake, user, args[0], argK(args, 1))
	case "join":
		if len(args) < 2 {
			return fmt.Errorf("join needs TABLE COLUMN")
		}
		return joinSearch(ctx, lake, user, args[0], args[1], argK(args, 2))
	case "query":
		if len(args) < 1 {
			return fmt.Errorf("query needs SQL")
		}
		return streamQuery(ctx, lake, user, strings.Join(args, " "), qf)
	case "swamp":
		rep, err := lake.SwampAudit(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("datasets=%d with-metadata=%d healthy=%v\n", rep.Datasets, rep.WithMetadata, rep.Healthy())
		for _, s := range rep.Swamp {
			fmt.Println("swamp:", s)
		}
		return nil
	case "lineage":
		if len(args) < 1 {
			return fmt.Errorf("lineage needs ENTITY")
		}
		up, err := lake.Lineage(ctx, args[0])
		if err != nil {
			return err
		}
		for _, e := range up {
			fmt.Println(e)
		}
		return nil
	case "status":
		return status(lake, qf.metrics)
	case "serve":
		addr := ":8080"
		if len(args) > 0 {
			addr = args[0]
		}
		if st := lake.MaintenanceStatus(); st.Auto {
			fmt.Println("background maintenance on: ingested data becomes explorable without a manual pass (GET /v1/maintenance for status)")
		}
		if qf.pprofAddr != "" {
			// The blank net/http/pprof import registered its handlers on
			// the default mux; serve them on their own listener so
			// profiling never rides the data-plane port.
			go func() {
				fmt.Printf("serving net/http/pprof on %s/debug/pprof/\n", qf.pprofAddr)
				if err := http.ListenAndServe(qf.pprofAddr, nil); !errors.Is(err, http.ErrServerClosed) {
					fmt.Fprintln(os.Stderr, "lakectl: pprof:", err)
				}
			}()
		}
		fmt.Printf("serving lake REST v1 API on %s under /v1/* (X-Lake-User header selects the user; unversioned routes are deprecated aliases; Prometheus metrics on GET /v1/metrics)\n", addr)
		srv := &http.Server{
			Addr:    addr,
			Handler: lake.HTTPHandler(),
			// Header-read and idle timeouts bound what a slow or stalled
			// client can pin: a connection that never finishes its headers
			// or sits idle on keep-alive is reclaimed.
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		done := make(chan struct{})
		go func() {
			// SIGINT/SIGTERM cancels ctx (signal.NotifyContext in main);
			// drain in-flight requests within the grace window, then exit.
			defer close(done)
			<-ctx.Done()
			sctx, cancel := context.WithTimeout(context.Background(), qf.shutdownGrace)
			defer cancel()
			_ = srv.Shutdown(sctx)
		}()
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		// ListenAndServe returns the moment Shutdown is *called*; wait
		// for the drain itself so in-flight streams finish.
		<-done
		return nil
	default:
		usage()
		return nil
	}
}

// streamQuery executes a federated query through the streaming
// pipeline, printing CSV rows as they arrive instead of buffering the
// full result — a LIMIT n query over a huge corpus emits n rows and
// stops, and Ctrl-C aborts between rows. All command flags fold into
// one query.Request; -explain pretty-prints the typed plan and runs
// nothing.
func streamQuery(ctx context.Context, lake *golake.Lake, user, sql string, qf queryFlags) error {
	order, err := parseOrderFlag(qf.order)
	if err != nil {
		return err
	}
	st, err := lake.Query(ctx, user, golake.QueryRequest{
		SQL:        sql,
		Order:      order,
		FanIn:      qf.fanIn,
		BufferRows: qf.bufferRows,
		BatchRows:  qf.batchRows,
		Shards:     qf.shards,
		Explain:    qf.explain,
		Timeout:    qf.timeout,
		MemoryRows: qf.memoryRows,
	})
	if err != nil {
		return err
	}
	defer st.Close()
	if st.ExplainOnly() {
		fmt.Print(st.Plan().String())
		return nil
	}
	w := csv.NewWriter(os.Stdout)
	if err := w.Write(st.Columns()); err != nil {
		return err
	}
	for n := 0; ; n++ {
		row, err := st.Next(ctx)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			w.Flush()
			return err
		}
		if err := w.Write(row); err != nil {
			return err
		}
		// Flush in small batches so rows reach the terminal (or a
		// downstream pipe) while the scan is still running.
		if n%64 == 63 {
			w.Flush()
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	if qf.stats {
		es := st.Stats()
		fmt.Fprintf(os.Stderr, "rows out: %d\n", es.RowsOut)
		for _, s := range es.Sources {
			fmt.Fprintf(os.Stderr, "source %s: %d rows pulled, blocked %s\n",
				s.Source, s.Rows, s.Blocked.Round(time.Microsecond))
		}
		for _, sp := range es.Trace {
			fmt.Fprintf(os.Stderr, "span %-14s %s\n", sp.Name, sp.Duration.Round(time.Microsecond))
		}
		if es.SortHeapRows > 0 {
			fmt.Fprintf(os.Stderr, "sort heap high-water: %d rows\n", es.SortHeapRows)
		}
		if es.Batches > 0 {
			fmt.Fprintf(os.Stderr, "columnar batches: %d\n", es.Batches)
		}
	}
	return nil
}

// parseOrderFlag parses the -order passthrough: col[:desc][,col...].
func parseOrderFlag(s string) ([]golake.OrderKey, error) {
	if s == "" {
		return nil, nil
	}
	var keys []golake.OrderKey
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		col, dir, hasDir := strings.Cut(item, ":")
		if col == "" {
			return nil, fmt.Errorf("-order: empty column in %q", s)
		}
		key := golake.OrderKey{Column: col}
		if hasDir {
			switch strings.ToLower(dir) {
			case "desc":
				key.Desc = true
			case "asc":
			default:
				return nil, fmt.Errorf("-order: bad direction %q (want asc or desc)", dir)
			}
		}
		keys = append(keys, key)
	}
	return keys, nil
}

func argK(args []string, i int) int {
	if len(args) > i {
		if k, err := strconv.Atoi(args[i]); err == nil {
			return k
		}
	}
	return 5
}

func profile(lake *golake.Lake) error {
	for _, id := range lake.GEMMS.IDs() {
		obj, err := lake.GEMMS.Object(id)
		if err != nil {
			return err
		}
		fmt.Printf("%s format=%s attrs=%d props=%d\n",
			id, obj.Properties["format"], len(obj.Attributes), len(obj.Properties))
	}
	return nil
}

func catalog(lake *golake.Lake) error {
	for _, id := range lake.Catalog.List() {
		e, err := lake.Catalog.Entry(id)
		if err != nil {
			return err
		}
		fmt.Printf("%s cluster=%s groups=%d\n", e.ID, e.Cluster, len(e.Groups))
	}
	return nil
}

func discover(ctx context.Context, lake *golake.Lake, user, tableName string, k int) error {
	res, err := lake.RelatedTables(ctx, user, tableName, k)
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Printf("%-30s %.3f via %s\n", r.Table, r.Score, r.Via)
	}
	return nil
}

func joinSearch(ctx context.Context, lake *golake.Lake, user, tableName, column string, k int) error {
	t, err := lake.Poly.Rel.Table(tableName)
	if err != nil {
		return err
	}
	res, err := lake.Explore(ctx, user, explore.Request{
		Mode: explore.ModeJoinColumn, Query: t, Column: column, K: k,
	})
	if err != nil {
		return err
	}
	for _, r := range res {
		fmt.Printf("%-30s overlap=%.0f\n", r.Table, r.Score)
	}
	return nil
}

// status prints the maintenance snapshot plus, on a persistent lake,
// the durability state (mirrors GET /v1/maintenance). With -metrics it
// also dumps the lake's registry in Prometheus text format — the same
// bytes GET /v1/metrics serves.
func status(lake *golake.Lake, metrics bool) error {
	st := lake.MaintenanceStatus()
	fmt.Printf("maintenance: passes=%d failures=%d covered=%d stale=%v auto=%v\n",
		st.PassesRun, st.Failures, st.Covered, st.Stale, st.Auto)
	if st.LastPass != nil {
		fmt.Printf("last pass: mode=%s datasets=%d tables=%d\n",
			st.LastPass.Mode, st.LastPass.Datasets, st.LastPass.Tables)
	}
	if d := st.Durability; d == nil {
		fmt.Println("durability: off (run with -persist)")
	} else {
		fmt.Printf("durability: backend=%s wal=%dB (%d records) snapshot=%dB segments=%d (%dB)\n",
			d.Backend, d.WALBytes, d.WALRecords, d.SnapshotBytes, d.Segments, d.SegmentBytes)
		if d.LastSnapshot != nil {
			fmt.Printf("last snapshot: %s\n", d.LastSnapshot.Format(time.RFC3339))
		}
		if r := d.Replay; r != nil {
			fmt.Printf("recovered: %d snapshot datasets + %d wal records (%d skipped, %d torn bytes, %d damaged segments) in %s\n",
				r.SnapshotDatasets, r.WALRecords, r.WALSkipped, r.TornBytes, r.DamagedSegments, r.Duration.Round(time.Microsecond))
		}
	}
	if metrics {
		return dumpMetrics(lake)
	}
	return nil
}

// dumpMetrics renders the lake's metric registry to stdout.
func dumpMetrics(lake *golake.Lake) error {
	reg := lake.Metrics()
	if reg == nil {
		fmt.Println("metrics: disabled")
		return nil
	}
	return reg.WritePrometheus(os.Stdout)
}

func printRegistry() {
	for _, e := range core.Registry() {
		fmt.Printf("%-12s %-28s %s\n", e.Tier, e.Function, strings.Join(e.Systems, ", "))
	}
}

// demo generates a synthetic corpus, runs the full pipeline and prints
// a compact walkthrough.
func demo(ctx context.Context) error {
	dir, err := os.MkdirTemp("", "golake-demo-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	lake, err := golake.Open(dir)
	if err != nil {
		return err
	}
	lake.AddUser("dana", golake.RoleDataScientist)
	c := workload.GenerateCorpus(workload.DefaultSpec())
	for _, tbl := range c.Tables {
		if _, err := lake.Ingest(ctx, "raw/"+tbl.Name+".csv", []byte(table.ToCSV(tbl)), "demo", "dana"); err != nil {
			return err
		}
	}
	rep, err := lake.Maintain(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("ingested %d tables, %d categories, %d RFDs\n",
		rep.Tables, len(rep.Categories), len(rep.RFDs))
	q := c.Tables[0].Name
	res, err := lake.RelatedTables(ctx, "dana", q, 4)
	if err != nil {
		return err
	}
	fmt.Printf("related to %s:\n", q)
	for _, r := range res {
		truth := ""
		if c.Joinable[workload.NewPair(q, r.Table)] {
			truth = " (ground truth ✓)"
		}
		fmt.Printf("  %-30s %.3f via %s%s\n", r.Table, r.Score, r.Via, truth)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lakectl:", err)
	os.Exit(1)
}

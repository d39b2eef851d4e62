package maintain

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// PassStats summarizes one executed maintenance pass on the wire.
type PassStats struct {
	// Mode is "full" or "incremental"; Reason explains a full rebuild.
	Mode   string `json:"mode"`
	Reason string `json:"reason,omitempty"`
	// Datasets is how many datasets this pass (re)indexed; Tables the
	// corpus size after it.
	Datasets   int           `json:"datasets"`
	Tables     int           `json:"tables"`
	Generation uint64        `json:"generation"`
	Duration   time.Duration `json:"duration_ns"`
}

// Status is the maintenance snapshot served over GET /v1/maintenance:
// lake-level pass counters plus, when a scheduler runs, its next firing.
type Status struct {
	// Auto reports whether a background scheduler is attached.
	Auto bool `json:"auto"`
	// Running reports whether a pass is executing right now.
	Running bool `json:"running"`
	// Stale reports whether ingests are waiting for the next pass.
	Stale     bool   `json:"stale"`
	PassesRun uint64 `json:"passes_run"`
	Failures  uint64 `json:"failures"`
	LastError string `json:"last_error,omitempty"`
	// Covered is how many datasets completed passes have indexed.
	Covered  int        `json:"covered"`
	LastPass *PassStats `json:"last_pass,omitempty"`
	// LastPassTime and NextRun are absent until a pass has run /
	// a scheduler is attached.
	LastPassTime *time.Time `json:"last_pass_time,omitempty"`
	NextRun      *time.Time `json:"next_run,omitempty"`
	// Durability is present when a persistence backend is attached.
	Durability *DurabilityStatus `json:"durability,omitempty"`
}

// DurabilityStatus reports the persistence backend's health on the
// maintenance wire: which backend, how much un-checkpointed WAL has
// accumulated, how many segments hold the lake's data, when the last
// snapshot landed, and what the open-time replay did.
type DurabilityStatus struct {
	Backend    string `json:"backend"`
	WALBytes   int64  `json:"wal_bytes"`
	WALRecords uint64 `json:"wal_records"`
	// SnapshotBytes is the manifest plus every segment.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	Segments      int   `json:"segments"`
	SegmentBytes  int64 `json:"segment_bytes"`
	// LastSnapshot is absent until the first checkpoint of this process.
	LastSnapshot *time.Time `json:"last_snapshot,omitempty"`
	// Replay describes what Open recovered; absent when the lake started
	// from an empty backend.
	Replay *ReplayStats `json:"replay,omitempty"`
}

// ReplayStats summarizes one open-time recovery.
type ReplayStats struct {
	// SnapshotDatasets is how many datasets the snapshot restored.
	SnapshotDatasets int `json:"snapshot_datasets"`
	// WALRecords is how many intact log records replayed; WALSkipped how
	// many were idempotent duplicates of snapshot state (a crash between
	// checkpoint rename and log truncation).
	WALRecords uint64 `json:"wal_records"`
	WALSkipped uint64 `json:"wal_skipped"`
	// TornBytes is the size of the corrupt/incomplete log tail dropped by
	// checksum verification; non-zero means the process died mid-append.
	TornBytes int64 `json:"torn_bytes"`
	// DamagedSegments counts datasets whose segment was missing or
	// failed its checksum: they are not served.
	DamagedSegments int `json:"damaged_segments"`
	// Duration is how long the recovery took, snapshot read to indexes
	// rebuilt (the post-replay checkpoint not included).
	Duration time.Duration `json:"duration_ns"`
}

// Target is the maintenance surface the scheduler drives. Pass must be
// safe to call concurrently with ingest and exploration; the scheduler
// itself never overlaps its own calls.
type Target interface {
	// Stale reports whether data arrived since the last completed pass.
	Stale() bool
	// Pass runs one maintenance pass (incremental where possible).
	Pass(ctx context.Context) (PassStats, error)
}

// Config tunes the scheduler.
type Config struct {
	// Interval is the debounce between staleness checks: ingests
	// accumulate for up to one interval before a pass covers them all.
	Interval time.Duration
	// RetryBase is the backoff after the first failed pass; it doubles
	// per consecutive failure up to RetryMax. Zero values default to
	// Interval and 10×Interval.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Jitter is the ± fraction applied to every delay so co-located
	// lakes don't run passes in lockstep. Defaults to 0.1.
	Jitter float64
	// Clock is the time source for NextRun reporting (timers always use
	// real time). Defaults to time.Now.
	Clock func() time.Time
	// OnRetry, when set, is called each time a failed pass schedules a
	// backoff retry, with the consecutive-failure count and the chosen
	// delay — the metrics/logging hook for backoff events.
	OnRetry func(consecutive int, delay time.Duration)
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.RetryBase <= 0 {
		c.RetryBase = c.Interval
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 10 * c.Interval
	}
	if c.Jitter <= 0 {
		c.Jitter = 0.1
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Scheduler re-runs maintenance passes in the background: every
// interval it checks Target.Stale and, when stale, runs one pass. A
// failing pass is retried with jittered exponential backoff; a
// successful pass resets the backoff. Stop shuts down cleanly, waiting
// for an in-flight pass to observe context cancellation and return.
type Scheduler struct {
	target  Target
	cfg     Config
	trigger chan struct{}
	cancel  context.CancelFunc
	done    chan struct{}

	mu          sync.Mutex
	started     bool
	stopped     bool
	nextRun     time.Time
	consecFails int
}

// NewScheduler creates a stopped scheduler; call Start to launch it.
func NewScheduler(target Target, cfg Config) *Scheduler {
	return &Scheduler{
		target:  target,
		cfg:     cfg.withDefaults(),
		trigger: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}
}

// Start launches the background goroutine. Starting twice is a no-op.
func (s *Scheduler) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	d := s.withJitter(s.cfg.Interval)
	s.nextRun = s.cfg.Clock().Add(d)
	s.mu.Unlock()
	go s.run(ctx, d)
}

// Stop cancels the scheduler and blocks until its goroutine has
// drained, including any in-flight pass (which sees the cancelled
// context through the lake's ctxErr checks and returns early). Safe to
// call more than once, and a no-op if Start never ran.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	started := s.started
	cancel := s.cancel
	s.stopped = true
	s.mu.Unlock()
	if !started {
		return
	}
	cancel()
	<-s.done
}

// Stopped reports whether the scheduler is not running (Stop was
// called, or Start never was) — status snapshots use it to avoid
// advertising a next firing that will never happen.
func (s *Scheduler) Stopped() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.started || s.stopped
}

// Trigger requests a staleness check now instead of at the next tick
// (e.g. an operator kick). Non-blocking; coalesces with a pending one.
func (s *Scheduler) Trigger() {
	select {
	case s.trigger <- struct{}{}:
	default:
	}
}

// NextRun reports when the next staleness check fires.
func (s *Scheduler) NextRun() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextRun
}

func (s *Scheduler) run(ctx context.Context, first time.Duration) {
	defer close(s.done)
	timer := time.NewTimer(first)
	defer timer.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-timer.C:
		case <-s.trigger:
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		}
		retry := false
		if s.target.Stale() {
			// An ingest racing this pass bumps the lake's generation
			// past the pass snapshot, so Stale stays true and the next
			// tick schedules another pass — racing ingests are deferred,
			// never lost.
			_, err := s.target.Pass(ctx)
			s.mu.Lock()
			switch {
			case err == nil:
				s.consecFails = 0
			case ctx.Err() != nil:
				// Shutdown mid-pass, not a target failure.
			default:
				s.consecFails++
				retry = true
			}
			s.mu.Unlock()
		}
		if ctx.Err() != nil {
			return
		}
		d := s.withJitter(s.cfg.Interval)
		if retry {
			s.mu.Lock()
			n := s.consecFails
			s.mu.Unlock()
			d = s.withJitter(backoffDelay(s.cfg.RetryBase, s.cfg.RetryMax, n))
			if s.cfg.OnRetry != nil {
				s.cfg.OnRetry(n, d)
			}
		}
		s.mu.Lock()
		s.nextRun = s.cfg.Clock().Add(d)
		s.mu.Unlock()
		timer.Reset(d)
	}
}

func (s *Scheduler) withJitter(d time.Duration) time.Duration {
	return jittered(d, s.cfg.Jitter, rand.Float64)
}

// backoffDelay is base doubled per consecutive failure beyond the
// first, capped at max. n is the consecutive-failure count (>= 1).
func backoffDelay(base, max time.Duration, n int) time.Duration {
	d := base
	for i := 1; i < n; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// jittered spreads d by ±frac using rnd in [0,1); delays never drop
// below half of d so backoff stays monotone in spirit.
func jittered(d time.Duration, frac float64, rnd func() float64) time.Duration {
	if frac <= 0 {
		return d
	}
	j := 1 + frac*(2*rnd()-1)
	out := time.Duration(float64(d) * j)
	if out < d/2 {
		out = d / 2
	}
	return out
}

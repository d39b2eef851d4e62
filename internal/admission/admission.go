// Package admission is the query scheduler in front of execution:
// every Lake.Query (and therefore every POST /v1/query) asks it for a
// ticket before the engine runs. It enforces three things per query —
// a deadline, a memory budget, and per-user capacity — and degrades in
// a defined order under load: admit immediately while the user is
// under quota, queue up to a bounded wait while a slot may free up,
// and shed (typed resource_exhausted, HTTP 429 + Retry-After) beyond
// that. A global in-flight cap turns into saturation shedding (typed
// unavailable, HTTP 503) so one process never accepts more work than
// it can execute.
//
// The controller is deliberately allocation-light on the admit path:
// one mutex, a per-user struct, and no goroutines of its own — queued
// waiters park on a channel that the releasing query hands its slot
// to directly (no herd wakeup, FIFO fairness per user).
package admission

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"golake/lakeerr"
)

// Config tunes the controller. The zero value admits everything
// (no quotas, no rate limit, no caps) and applies no default deadline
// or budget — admission is opt-in per knob.
type Config struct {
	// MaxConcurrentPerUser caps queries executing at once per user;
	// 0 means unlimited. Queries beyond the cap queue (see
	// MaxQueueWait) and shed once queueing is exhausted.
	MaxConcurrentPerUser int

	// MaxQueuedPerUser bounds the per-user wait queue; 0 defaults to
	// MaxConcurrentPerUser (one queued per running slot), so a burst
	// sheds quickly instead of building unbounded latency.
	MaxQueuedPerUser int

	// MaxQueueWait bounds how long an over-quota query waits for a
	// slot before it is shed. 0 disables queueing entirely: over-quota
	// queries shed immediately.
	MaxQueueWait time.Duration

	// RatePerSec refills each user's token bucket; 0 disables rate
	// limiting. Each admitted or queued query consumes one token.
	RatePerSec float64

	// Burst is the token bucket capacity; defaults to
	// max(1, ceil(RatePerSec)) when rate limiting is on.
	Burst int

	// MaxInFlight caps queries executing at once across all users; 0
	// means unlimited. At the cap new queries are shed as saturated
	// (HTTP 503) — they do not queue, because a saturated process
	// should push back immediately.
	MaxInFlight int

	// DefaultTimeout is applied to queries that set no deadline of
	// their own; 0 leaves them unbounded.
	DefaultTimeout time.Duration

	// MaxTimeout clamps every query deadline, including explicit
	// ones; 0 means no clamp.
	MaxTimeout time.Duration

	// DefaultMemoryRows is the per-query memory budget (rows buffered
	// across fan-in + sort) applied when the request sets none; 0
	// leaves it unbounded.
	DefaultMemoryRows int

	// MaxMemoryRows clamps every per-query memory budget; 0 means no
	// clamp.
	MaxMemoryRows int

	// RetryAfter is the hint attached to shed errors (the HTTP
	// Retry-After header); defaults to 1s. Rate-limit sheds override
	// it with the actual token deficit when that is longer.
	RetryAfter time.Duration
}

// Hooks observe admission outcomes (the golake_admission_* series).
// All fields are optional; callbacks run outside the controller lock
// except Queued, which fires before the wait starts.
type Hooks struct {
	// Admitted fires when a query gets a slot (immediately or after
	// queueing).
	Admitted func(user string)
	// Queued fires when a query starts waiting for a slot; the wait
	// duration is reported via Admitted/Shed QueueWait observation.
	Queued func(user string)
	// Shed fires when a query is rejected: reason is one of
	// "rate", "queue_full", "queue_wait", "canceled", "saturated".
	Shed func(user, reason string)
	// Released fires when an admitted query finishes.
	Released func(user string)
	// QueueWait observes the time a query spent queued before being
	// admitted or shed.
	QueueWait func(d time.Duration)
}

// ErrShed is the sentinel inside every quota/rate/queue rejection, so
// callers can errors.Is for "this was load shedding" regardless of
// reason.
var ErrShed = errors.New("admission: query shed")

// ErrSaturated is the sentinel inside global-saturation rejections
// (HTTP 503): the process as a whole is at capacity, not one user.
var ErrSaturated = errors.New("admission: server saturated")

// ShedError is the typed rejection: Reason says why, RetryAfter hints
// when to try again (the HTTP layer turns it into a Retry-After
// header). It wraps ErrShed or ErrSaturated and is classified
// resource_exhausted or unavailable respectively via lakeerr.
type ShedError struct {
	User       string
	Reason     string // "rate" | "queue_full" | "queue_wait" | "saturated"
	RetryAfter time.Duration
	sentinel   error
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("admission: user %q shed (%s), retry after %s", e.User, e.Reason, e.RetryAfter)
}

func (e *ShedError) Unwrap() error { return e.sentinel }

// RetryAfterOf extracts the retry hint from an error chain; ok is
// false when the error is not an admission rejection.
func RetryAfterOf(err error) (time.Duration, bool) {
	var se *ShedError
	if errors.As(err, &se) {
		return se.RetryAfter, true
	}
	return 0, false
}

// Ticket is one admitted query's slot. Release returns it; it is
// idempotent and safe to call from stream-close hooks that may fire
// alongside error paths.
type Ticket struct {
	c    *Controller
	user string
	once sync.Once
}

// Release returns the slot, handing it directly to the user's oldest
// queued waiter if one is parked.
func (t *Ticket) Release() {
	if t == nil {
		return
	}
	t.once.Do(func() { t.c.release(t.user) })
}

// Controller is the scheduler. New with a zero Config admits
// everything and costs one mutex acquisition per query.
type Controller struct {
	cfg   Config
	hooks Hooks
	now   func() time.Time

	mu       sync.Mutex
	users    map[string]*userState
	inFlight int
}

// userState is one user's capacity accounting. States are reaped when
// idle (no in-flight, no waiters, full bucket) so the map stays
// bounded by active users, not ever-seen users.
type userState struct {
	inFlight int
	tokens   float64
	last     time.Time
	waiters  []chan struct{}
}

// New builds a controller. clock is for tests; nil means time.Now.
func New(cfg Config, clock func() time.Time) *Controller {
	if clock == nil {
		clock = time.Now
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxQueuedPerUser <= 0 {
		cfg.MaxQueuedPerUser = cfg.MaxConcurrentPerUser
	}
	if cfg.RatePerSec > 0 && cfg.Burst <= 0 {
		cfg.Burst = int(cfg.RatePerSec)
		if float64(cfg.Burst) < cfg.RatePerSec {
			cfg.Burst++
		}
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	return &Controller{cfg: cfg, now: clock, users: make(map[string]*userState)}
}

// SetHooks installs observation callbacks; call before serving.
func (c *Controller) SetHooks(h Hooks) { c.hooks = h }

// EffectiveTimeout resolves a request's deadline against the
// default/clamp knobs: 0 takes DefaultTimeout, and MaxTimeout caps
// the result (including "unbounded" requests when a clamp is set).
func (c *Controller) EffectiveTimeout(req time.Duration) time.Duration {
	if req <= 0 {
		req = c.cfg.DefaultTimeout
	}
	if c.cfg.MaxTimeout > 0 && (req <= 0 || req > c.cfg.MaxTimeout) {
		req = c.cfg.MaxTimeout
	}
	return req
}

// EffectiveMemoryRows resolves a request's memory budget the same way.
func (c *Controller) EffectiveMemoryRows(req int) int {
	if req <= 0 {
		req = c.cfg.DefaultMemoryRows
	}
	if c.cfg.MaxMemoryRows > 0 && (req <= 0 || req > c.cfg.MaxMemoryRows) {
		req = c.cfg.MaxMemoryRows
	}
	return req
}

// Admit asks for a slot for user. It returns a Ticket to Release when
// the query finishes, or a typed rejection: *ShedError wrapped as
// lakeerr resource_exhausted (quota/rate/queue) or unavailable
// (saturation). Over-quota queries block up to MaxQueueWait (bounded
// additionally by ctx) waiting for a slot handed over by a releasing
// query.
func (c *Controller) Admit(ctx context.Context, user string) (*Ticket, error) {
	c.mu.Lock()
	// Saturation first: a process at its global cap pushes back on
	// everyone immediately — queueing would only grow the overload.
	if c.cfg.MaxInFlight > 0 && c.inFlight >= c.cfg.MaxInFlight {
		c.mu.Unlock()
		c.shedHook(user, "saturated")
		return nil, c.shedErr(user, "saturated", c.cfg.RetryAfter, ErrSaturated)
	}
	u := c.user(user)
	// Token bucket: one token per query, refilled continuously.
	if c.cfg.RatePerSec > 0 {
		c.refill(u)
		if u.tokens < 1 {
			retry := c.cfg.RetryAfter
			if d := time.Duration((1 - u.tokens) / c.cfg.RatePerSec * float64(time.Second)); d > retry {
				retry = d
			}
			c.reap(user, u)
			c.mu.Unlock()
			c.shedHook(user, "rate")
			return nil, c.shedErr(user, "rate", retry, ErrShed)
		}
		u.tokens--
	}
	// Under quota: admit now.
	if c.cfg.MaxConcurrentPerUser <= 0 || u.inFlight < c.cfg.MaxConcurrentPerUser {
		u.inFlight++
		c.inFlight++
		c.mu.Unlock()
		if c.hooks.Admitted != nil {
			c.hooks.Admitted(user)
		}
		return &Ticket{c: c, user: user}, nil
	}
	// Over quota: queue if allowed, shed otherwise.
	if c.cfg.MaxQueueWait <= 0 || len(u.waiters) >= c.cfg.MaxQueuedPerUser {
		c.refund(u)
		c.mu.Unlock()
		c.shedHook(user, "queue_full")
		return nil, c.shedErr(user, "queue_full", c.cfg.RetryAfter, ErrShed)
	}
	grant := make(chan struct{})
	u.waiters = append(u.waiters, grant)
	c.mu.Unlock()

	if c.hooks.Queued != nil {
		c.hooks.Queued(user)
	}
	start := c.now()
	timer := time.NewTimer(c.cfg.MaxQueueWait)
	defer timer.Stop()
	select {
	case <-grant:
		// A releasing query handed its slot over (counters already
		// transferred under the lock in release).
		c.waitHook(c.now().Sub(start))
		if c.hooks.Admitted != nil {
			c.hooks.Admitted(user)
		}
		return &Ticket{c: c, user: user}, nil
	case <-timer.C:
		return c.abandon(user, grant, "queue_wait", start, ctx)
	case <-ctx.Done():
		return c.abandon(user, grant, "canceled", start, ctx)
	}
}

// abandon removes a timed-out/canceled waiter. The grant may have
// raced in between the select firing and the lock being taken; in that
// case the slot is already ours and we keep it.
func (c *Controller) abandon(user string, grant chan struct{}, reason string, start time.Time, ctx context.Context) (*Ticket, error) {
	c.mu.Lock()
	u := c.users[user]
	if u != nil {
		for i, w := range u.waiters {
			if w == grant {
				u.waiters = append(u.waiters[:i], u.waiters[i+1:]...)
				c.refund(u)
				c.reap(user, u)
				c.mu.Unlock()
				c.waitHook(c.now().Sub(start))
				c.shedHook(user, reason)
				if reason == "canceled" {
					// The caller's context expired while queued; surface
					// its own error so deadline/cancel classification is
					// preserved.
					return nil, ctx.Err()
				}
				return nil, c.shedErr(user, reason, c.cfg.RetryAfter, ErrShed)
			}
		}
	}
	c.mu.Unlock()
	// Not on the waiter list anymore: release already granted us the
	// slot. Accept it — the counters are transferred.
	<-grant
	c.waitHook(c.now().Sub(start))
	if c.hooks.Admitted != nil {
		c.hooks.Admitted(user)
	}
	return &Ticket{c: c, user: user}, nil
}

// release returns one slot, handing it to the user's oldest waiter
// when one is parked (counters stay put: the slot transfers owner
// without ever being observable as free).
func (c *Controller) release(user string) {
	c.mu.Lock()
	u := c.users[user]
	if u == nil {
		c.mu.Unlock()
		return
	}
	if len(u.waiters) > 0 {
		grant := u.waiters[0]
		u.waiters = u.waiters[1:]
		c.mu.Unlock()
		close(grant)
		if c.hooks.Released != nil {
			c.hooks.Released(user)
		}
		return
	}
	u.inFlight--
	c.inFlight--
	c.reap(user, u)
	c.mu.Unlock()
	if c.hooks.Released != nil {
		c.hooks.Released(user)
	}
}

// user returns (creating if needed) the state for one user. Caller
// holds c.mu.
func (c *Controller) user(user string) *userState {
	u := c.users[user]
	if u == nil {
		u = &userState{last: c.now()}
		if c.cfg.RatePerSec > 0 {
			u.tokens = float64(c.cfg.Burst)
		}
		c.users[user] = u
	}
	return u
}

// refill advances the user's token bucket to now. Caller holds c.mu.
func (c *Controller) refill(u *userState) {
	now := c.now()
	if dt := now.Sub(u.last); dt > 0 {
		u.tokens += dt.Seconds() * c.cfg.RatePerSec
		if max := float64(c.cfg.Burst); u.tokens > max {
			u.tokens = max
		}
	}
	u.last = now
}

// refund returns the token a shed query consumed (it never ran).
// Caller holds c.mu.
func (c *Controller) refund(u *userState) {
	if c.cfg.RatePerSec > 0 {
		u.tokens++
		if max := float64(c.cfg.Burst); u.tokens > max {
			u.tokens = max
		}
	}
}

// reap drops an idle user's state so the map tracks active users, not
// ever-seen ones. Caller holds c.mu.
func (c *Controller) reap(user string, u *userState) {
	if u.inFlight == 0 && len(u.waiters) == 0 &&
		(c.cfg.RatePerSec <= 0 || u.tokens >= float64(c.cfg.Burst)) {
		delete(c.users, user)
	}
}

func (c *Controller) shedErr(user, reason string, retry time.Duration, sentinel error) error {
	code := lakeerr.CodeResourceExhausted
	if sentinel == ErrSaturated {
		code = lakeerr.CodeUnavailable
	}
	return lakeerr.Wrap(code, &ShedError{User: user, Reason: reason, RetryAfter: retry, sentinel: sentinel})
}

func (c *Controller) shedHook(user, reason string) {
	if c.hooks.Shed != nil {
		c.hooks.Shed(user, reason)
	}
}

func (c *Controller) waitHook(d time.Duration) {
	if c.hooks.QueueWait != nil {
		if d < 0 {
			d = 0
		}
		c.hooks.QueueWait(d)
	}
}

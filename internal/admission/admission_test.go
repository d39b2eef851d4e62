package admission

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"golake/lakeerr"
)

// checkNoGoroutineLeak snapshots the goroutine count and asserts it
// settles back after the test body — the controller spawns no
// goroutines of its own, so any growth is a parked waiter leak.
func checkNoGoroutineLeak(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		for i := 0; i < 100; i++ {
			if runtime.NumGoroutine() <= before {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
	}
}

// TestAdmissionSaturationBurst is the acceptance scenario: quota 2
// concurrent per user, a burst of 16 queries. Exactly 2 run, the
// queue holds a bounded few, and the rest shed with a Retry-After
// hint — and nothing leaks.
func TestAdmissionSaturationBurst(t *testing.T) {
	leak := checkNoGoroutineLeak(t)
	c := New(Config{
		MaxConcurrentPerUser: 2,
		MaxQueuedPerUser:     2,
		MaxQueueWait:         50 * time.Millisecond,
	}, nil)

	const burst = 16
	var (
		admitted atomic.Int32
		peak     atomic.Int32
		running  atomic.Int32
		shed     atomic.Int32
		wg       sync.WaitGroup
	)
	release := make(chan struct{})
	var tickets sync.Map
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tk, err := c.Admit(context.Background(), "alice")
			if err != nil {
				var se *ShedError
				if !errors.As(err, &se) {
					t.Errorf("shed error not typed: %v", err)
					return
				}
				if se.RetryAfter <= 0 {
					t.Errorf("shed without Retry-After hint: %+v", se)
				}
				if !lakeerr.IsResourceExhausted(err) {
					t.Errorf("shed not classified resource_exhausted: %q", lakeerr.CodeOf(err))
				}
				shed.Add(1)
				return
			}
			admitted.Add(1)
			n := running.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			<-release
			running.Add(-1)
			tickets.Store(i, tk)
		}(i)
	}

	// Let the burst settle: 2 running, up to 2 queued, rest shed.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if int(admitted.Load())+int(shed.Load()) >= burst-2 && inFlight(c) == 2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := inFlight(c); got != 2 {
		t.Errorf("in-flight during burst = %d, want exactly 2", got)
	}
	if got := userInFlight(c, "alice"); got != 2 {
		t.Errorf("user in-flight = %d, want 2", got)
	}
	close(release)
	wg.Wait()
	tickets.Range(func(_, v any) bool {
		v.(*Ticket).Release()
		return true
	})

	if peak.Load() != 2 {
		t.Errorf("peak concurrent executions = %d, want 2", peak.Load())
	}
	// 2 run immediately; up to 2 queued waiters can be handed slots
	// when the first 2 release; everything else must have shed.
	if a := admitted.Load(); a < 2 || a > 4 {
		t.Errorf("admitted = %d, want between 2 (immediate) and 4 (incl. handed-off waiters)", a)
	}
	if s := shed.Load(); int(s) != burst-int(admitted.Load()) {
		t.Errorf("shed = %d, admitted = %d, want them to cover the burst of %d", s, admitted.Load(), burst)
	}
	if got := inFlight(c); got != 0 {
		t.Errorf("in-flight after release = %d, want 0", got)
	}
	leak()
}

func TestQueueHandsSlotToWaiter(t *testing.T) {
	defer checkNoGoroutineLeak(t)()
	c := New(Config{MaxConcurrentPerUser: 1, MaxQueueWait: 2 * time.Second}, nil)
	tk1, err := c.Admit(context.Background(), "u")
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	got := make(chan error, 1)
	go func() {
		tk2, err := c.Admit(context.Background(), "u")
		if err == nil {
			tk2.Release()
		}
		got <- err
	}()
	// The second query must be parked, not admitted.
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-got:
		t.Fatalf("second admit returned early: %v", err)
	default:
	}
	tk1.Release()
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("queued admit after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("slot was not handed to the waiter")
	}
	if inFlight(c) != 0 {
		t.Errorf("in-flight = %d after both released", inFlight(c))
	}
}

func TestQueueWaitTimeoutSheds(t *testing.T) {
	defer checkNoGoroutineLeak(t)()
	c := New(Config{MaxConcurrentPerUser: 1, MaxQueueWait: 30 * time.Millisecond}, nil)
	tk, err := c.Admit(context.Background(), "u")
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	defer tk.Release()
	_, err = c.Admit(context.Background(), "u")
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != "queue_wait" {
		t.Fatalf("want queue_wait shed, got %v", err)
	}
	if !errors.Is(err, ErrShed) {
		t.Error("shed error should wrap ErrShed")
	}
}

func TestQueueCanceledWhileWaiting(t *testing.T) {
	defer checkNoGoroutineLeak(t)()
	c := New(Config{MaxConcurrentPerUser: 1, MaxQueueWait: 5 * time.Second}, nil)
	tk, err := c.Admit(context.Background(), "u")
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	defer tk.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err = c.Admit(ctx, "u")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want the context's own error, got %v", err)
	}
}

func TestRateLimitTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := New(Config{RatePerSec: 1, Burst: 2}, clock)

	for i := 0; i < 2; i++ {
		tk, err := c.Admit(context.Background(), "u")
		if err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
		tk.Release()
	}
	_, err := c.Admit(context.Background(), "u")
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != "rate" {
		t.Fatalf("want rate shed, got %v", err)
	}
	if se.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %v, want >= 1s (full token deficit)", se.RetryAfter)
	}
	if !lakeerr.IsResourceExhausted(err) {
		t.Errorf("rate shed classified %q", lakeerr.CodeOf(err))
	}

	// One second later one token has refilled.
	now = now.Add(time.Second)
	tk, err := c.Admit(context.Background(), "u")
	if err != nil {
		t.Fatalf("admit after refill: %v", err)
	}
	tk.Release()
}

func TestGlobalSaturation(t *testing.T) {
	defer checkNoGoroutineLeak(t)()
	c := New(Config{MaxInFlight: 2}, nil)
	tk1, _ := c.Admit(context.Background(), "a")
	tk2, _ := c.Admit(context.Background(), "b")
	_, err := c.Admit(context.Background(), "c")
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("want ErrSaturated, got %v", err)
	}
	if !lakeerr.IsUnavailable(err) {
		t.Errorf("saturation classified %q, want unavailable (503)", lakeerr.CodeOf(err))
	}
	if _, ok := RetryAfterOf(err); !ok {
		t.Error("saturation shed carries no Retry-After hint")
	}
	tk1.Release()
	tk2.Release()
	tk3, err := c.Admit(context.Background(), "c")
	if err != nil {
		t.Fatalf("admit after drain: %v", err)
	}
	tk3.Release()
}

func TestTicketReleaseIdempotent(t *testing.T) {
	c := New(Config{MaxConcurrentPerUser: 1}, nil)
	tk, err := c.Admit(context.Background(), "u")
	if err != nil {
		t.Fatal(err)
	}
	tk.Release()
	tk.Release() // second call must not double-free the slot
	tk2, err := c.Admit(context.Background(), "u")
	if err != nil {
		t.Fatalf("admit after double release: %v", err)
	}
	tk2.Release()
	if inFlight(c) != 0 {
		t.Errorf("in-flight = %d, want 0 (double Release must not underflow)", inFlight(c))
	}
}

func TestEffectiveTimeoutAndBudget(t *testing.T) {
	c := New(Config{
		DefaultTimeout:    2 * time.Second,
		MaxTimeout:        5 * time.Second,
		DefaultMemoryRows: 1000,
		MaxMemoryRows:     5000,
	}, nil)
	if got := c.EffectiveTimeout(0); got != 2*time.Second {
		t.Errorf("default timeout = %v", got)
	}
	if got := c.EffectiveTimeout(3 * time.Second); got != 3*time.Second {
		t.Errorf("explicit timeout = %v", got)
	}
	if got := c.EffectiveTimeout(time.Minute); got != 5*time.Second {
		t.Errorf("clamped timeout = %v", got)
	}
	if got := c.EffectiveMemoryRows(0); got != 1000 {
		t.Errorf("default budget = %d", got)
	}
	if got := c.EffectiveMemoryRows(99999); got != 5000 {
		t.Errorf("clamped budget = %d", got)
	}
	// A clamp with no default still bounds "unbounded" requests.
	c2 := New(Config{MaxTimeout: time.Second}, nil)
	if got := c2.EffectiveTimeout(0); got != time.Second {
		t.Errorf("clamp without default = %v", got)
	}
	// Zero config: everything passes through untouched.
	c3 := New(Config{}, nil)
	if got := c3.EffectiveTimeout(0); got != 0 {
		t.Errorf("zero config timeout = %v", got)
	}
	if got := c3.EffectiveMemoryRows(0); got != 0 {
		t.Errorf("zero config budget = %d", got)
	}
}

func TestHooksObserveOutcomes(t *testing.T) {
	var mu sync.Mutex
	counts := map[string]int{}
	bump := func(k string) {
		mu.Lock()
		counts[k]++
		mu.Unlock()
	}
	c := New(Config{MaxConcurrentPerUser: 1, MaxQueueWait: 0}, nil)
	c.SetHooks(Hooks{
		Admitted:  func(string) { bump("admitted") },
		Queued:    func(string) { bump("queued") },
		Shed:      func(string, string) { bump("shed") },
		Released:  func(string) { bump("released") },
		QueueWait: func(time.Duration) { bump("wait") },
	})
	tk, err := c.Admit(context.Background(), "u")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Admit(context.Background(), "u"); err == nil {
		t.Fatal("over-quota admit with no queueing should shed")
	}
	tk.Release()
	mu.Lock()
	defer mu.Unlock()
	if counts["admitted"] != 1 || counts["shed"] != 1 || counts["released"] != 1 {
		t.Errorf("hook counts = %v", counts)
	}
}

// TestConcurrentStressInvariant hammers admit/release from many
// goroutines under -race and asserts the per-user cap is never
// violated.
func TestConcurrentStressInvariant(t *testing.T) {
	defer checkNoGoroutineLeak(t)()
	const cap = 3
	c := New(Config{MaxConcurrentPerUser: cap, MaxQueueWait: 10 * time.Millisecond}, nil)
	var (
		running atomic.Int32
		wg      sync.WaitGroup
	)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				tk, err := c.Admit(context.Background(), "stress")
				if err != nil {
					continue
				}
				if n := running.Add(1); n > cap {
					t.Errorf("cap violated: %d running", n)
				}
				runtime.Gosched()
				running.Add(-1)
				tk.Release()
			}
		}()
	}
	wg.Wait()
	if inFlight(c) != 0 {
		t.Errorf("in-flight = %d after stress", inFlight(c))
	}
}

// inFlight reads the global number of admitted, unreleased queries.
func inFlight(c *Controller) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inFlight
}

// userInFlight reads one user's admitted, unreleased queries.
func userInFlight(c *Controller, user string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if u := c.users[user]; u != nil {
		return u.inFlight
	}
	return 0
}

package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dsa"
	"repro/internal/metrics"
	"repro/internal/relation"
	"repro/internal/tc"
)

// fakeClock is a manually advanced time source — the injected clock
// that makes breaker open→half-open transitions deterministic.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

var errDown = fmt.Errorf("dial: %w", ErrPeerDown)

func TestBreakerStateMachine(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(BreakerConfig{FailureThreshold: 3, OpenInterval: 2 * time.Second}, clk.Now)

	// Closed: failures below the threshold keep passing traffic, and a
	// success resets the consecutive count.
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused RPC %d", i)
		}
		b.Record(errDown)
	}
	b.Record(nil) // reset
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after reset = %v, want closed", got)
	}

	// Three consecutive failures trip it.
	for i := 0; i < 3; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused RPC %d", i)
		}
		b.Record(errDown)
	}
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed traffic inside the open interval")
	}

	// The open interval elapses: exactly one half-open probe is granted.
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the half-open probe after the open interval")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after probe grant = %v, want half_open", got)
	}
	if b.Allow() {
		t.Fatal("half-open breaker granted a second probe (budget 1)")
	}

	// The probe fails: immediately open again, for a fresh interval.
	b.Record(errDown)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	clk.Advance(time.Second)
	if b.Allow() {
		t.Fatal("re-opened breaker allowed traffic after only half the interval")
	}
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("breaker refused the second half-open probe")
	}

	// The probe succeeds: closed, traffic flows.
	b.Record(nil)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused traffic")
	}
	b.Record(nil)
}

func TestBreakerNeutralOutcomeReleasesProbe(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(BreakerConfig{FailureThreshold: 1, OpenInterval: time.Second}, clk.Now)
	b.Allow()
	b.Record(errDown) // trip
	clk.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("no probe granted")
	}
	// The probe's caller canceled: that says nothing about the peer —
	// stay half-open, but release the token so the next RPC can probe.
	b.Record(fmt.Errorf("rpc: %w", context.Canceled))
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state after neutral probe = %v, want half_open", got)
	}
	if !b.Allow() {
		t.Fatal("probe token not released after neutral outcome")
	}
}

func TestBreakerProtocolErrorsDoNotTrip(t *testing.T) {
	clk := newFakeClock()
	b := newBreaker(BreakerConfig{FailureThreshold: 1, OpenInterval: time.Second}, clk.Now)
	// A peer that answers wrongly is alive: epoch skew, bad responses
	// and application errors must not open the breaker.
	for _, err := range []error{
		fmt.Errorf("peer: %w", ErrEpochSkew),
		fmt.Errorf("peer: %w", ErrBadPeerResponse),
		fmt.Errorf("peer: %w", dsa.ErrUnknownSite),
	} {
		b.Allow()
		b.Record(err)
		if got := b.State(); got != BreakerClosed {
			t.Fatalf("state after %v = %v, want closed", err, got)
		}
	}
}

func TestClassifyOutcome(t *testing.T) {
	cases := []struct {
		err  error
		want rpcOutcome
	}{
		{nil, outcomeSuccess},
		{errDown, outcomeFailure},
		{fmt.Errorf("deadline: %w", ErrPeerTimeout), outcomeFailure},
		{fmt.Errorf("rpc: %w (%w)", dsa.ErrCanceled, context.Canceled), outcomeNeutral},
		{fmt.Errorf("peer: %w", ErrEpochSkew), outcomeSuccess},
		{fmt.Errorf("peer: %w", ErrBadPeerResponse), outcomeSuccess},
		// Breaker-open refusals wrap ErrPeerDown, but they never reach
		// Record (no RPC happened) — classification still counts them as
		// failures if they ever did.
		{fmt.Errorf("x: %w (%w)", ErrBreakerOpen, ErrPeerDown), outcomeFailure},
	}
	for _, tt := range cases {
		if got := classifyOutcome(tt.err); got != tt.want {
			t.Errorf("classifyOutcome(%v) = %v, want %v", tt.err, got, tt.want)
		}
	}
}

func TestFallbackEligible(t *testing.T) {
	eligible := []error{
		fmt.Errorf("dial: %w", ErrPeerDown),
		fmt.Errorf("deadline: %w", ErrPeerTimeout),
		fmt.Errorf("x: %w (%w)", ErrBreakerOpen, ErrPeerDown),
	}
	for _, err := range eligible {
		if !FallbackEligible(err) {
			t.Errorf("FallbackEligible(%v) = false, want true", err)
		}
	}
	ineligible := []error{
		nil,
		fmt.Errorf("peer: %w", ErrEpochSkew),
		fmt.Errorf("peer: %w", ErrBadPeerResponse),
		fmt.Errorf("rpc: %w", context.Canceled),
	}
	for _, err := range ineligible {
		if FallbackEligible(err) {
			t.Errorf("FallbackEligible(%v) = true, want false", err)
		}
	}
}

func TestRetryBackoff(t *testing.T) {
	cfg := RetryConfig{BaseBackoff: 25 * time.Millisecond}.withDefaults()
	want := []time.Duration{25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond, maxBackoff, maxBackoff}
	for i, w := range want {
		if got := cfg.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
}

// scriptedLegTransport answers a valid empty leg at the requested
// epoch, counting calls — the healthy inner transport fault tests wrap.
type scriptedLegTransport struct {
	mu    sync.Mutex
	calls int
}

func (s *scriptedLegTransport) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func (s *scriptedLegTransport) ExecuteLeg(ctx context.Context, req *LegRequest) (*LegResponse, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return NewLegResponse(req.Epoch, false, relation.New("src", "dst", "cost"), tc.Stats{}), nil
}

func (s *scriptedLegTransport) ForwardUpdate(ctx context.Context, req *UpdateRequest) (*UpdateAck, error) {
	s.mu.Lock()
	s.calls++
	s.mu.Unlock()
	return &UpdateAck{}, nil
}

// newResilientPair builds a 2-node coordinator ("a" self, "b" remote)
// whose transport to b is inner wrapped in script, with instant
// deterministic retries (no jitter, no sleeping) and an injected
// clock. Returns the coordinator, a site owned by b, and the clock.
func newResilientPair(t *testing.T, inner Transport, script FaultScript, mutate func(cfg *Config)) (*Coordinator, int, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	cfg := Config{
		NodeID: "a",
		Peers: []Node{
			{ID: "a", URL: "http://a.invalid:1"},
			{ID: "b", URL: "http://b.invalid:1"},
		},
		Timeout: time.Second,
		Clock:   clk.Now,
		NewTransport: func(n Node) Transport {
			if script != nil {
				return NewFaultTransport(inner, n.ID, script)
			}
			return inner
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.jitter = func(d time.Duration) time.Duration { return d }
	c.sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	for site := 0; site < 1024; site++ {
		if !c.IsLocal(site) {
			return c, site, clk
		}
	}
	t.Fatal("ring assigned every site to a")
	return nil, 0, nil
}

func TestExecuteLegRetriesTransientFailure(t *testing.T) {
	inner := &scriptedLegTransport{}
	script, err := ParseFaultScript("b:down*2,ok")
	if err != nil {
		t.Fatal(err)
	}
	c, site, _ := newResilientPair(t, inner, script, nil)
	reg := metrics.NewRegistry()
	c.Register(reg)

	// Two injected failures, third attempt (the default budget) lands.
	_, _, _, err = c.ExecuteLeg(context.Background(), dsa.Leg{SiteID: site}, "dijkstra", 0)
	if err != nil {
		t.Fatalf("leg with 2 transient failures and 3 attempts: %v", err)
	}
	if got := inner.count(); got != 1 {
		t.Errorf("inner transport saw %d calls, want 1 (faults short-circuit)", got)
	}
	snap := reg.Snapshot()
	if got := snap[`tc_cluster_leg_retries_total{peer="b"}`]; got != 2 {
		t.Errorf("retry counter = %v, want 2", got)
	}
	if got := snap[`tc_peer_rpc_errors_total{peer="b",code="peer_down"}`]; got != 2 {
		t.Errorf("error counter = %v, want 2", got)
	}
	if got := snap[`tc_peer_rpc_success_total{peer="b"}`]; got != 1 {
		t.Errorf("success counter = %v, want 1", got)
	}
}

func TestExecuteLegExhaustsRetryBudget(t *testing.T) {
	inner := &scriptedLegTransport{}
	script, _ := ParseFaultScript("b:down*")
	c, site, _ := newResilientPair(t, inner, script, func(cfg *Config) {
		cfg.Breaker.FailureThreshold = 100 // keep the breaker out of this test
	})
	_, _, _, err := c.ExecuteLeg(context.Background(), dsa.Leg{SiteID: site}, "dijkstra", 0)
	if !errors.Is(err, ErrPeerDown) {
		t.Fatalf("exhausted retries = %v, want ErrPeerDown", err)
	}
	if got := inner.count(); got != 0 {
		t.Errorf("inner transport saw %d calls, want 0", got)
	}
}

func TestExecuteLegDoesNotRetryProtocolErrors(t *testing.T) {
	// A peer echoing the wrong epoch is answering — retrying would just
	// repeat the coherence violation. One attempt, typed error out.
	calls := 0
	inner := transportFunc{
		leg: func(ctx context.Context, req *LegRequest) (*LegResponse, error) {
			calls++
			return NewLegResponse(req.Epoch+7, false, relation.New("src", "dst", "cost"), tc.Stats{}), nil
		},
	}
	c, site, _ := newResilientPair(t, inner, nil, nil)
	_, _, _, err := c.ExecuteLeg(context.Background(), dsa.Leg{SiteID: site}, "dijkstra", 0)
	if !errors.Is(err, ErrEpochSkew) {
		t.Fatalf("wrong-epoch echo = %v, want ErrEpochSkew", err)
	}
	if calls != 1 {
		t.Errorf("epoch-skew leg was attempted %d times, want 1", calls)
	}
}

// transportFunc adapts closures to Transport.
type transportFunc struct {
	leg func(context.Context, *LegRequest) (*LegResponse, error)
	upd func(context.Context, *UpdateRequest) (*UpdateAck, error)
}

func (f transportFunc) ExecuteLeg(ctx context.Context, req *LegRequest) (*LegResponse, error) {
	return f.leg(ctx, req)
}

func (f transportFunc) ForwardUpdate(ctx context.Context, req *UpdateRequest) (*UpdateAck, error) {
	return f.upd(ctx, req)
}

func TestBreakerTripsAndRecoversThroughCoordinator(t *testing.T) {
	inner := &scriptedLegTransport{}
	// 6 failures: enough to exhaust one 3-attempt leg call (3 failures)
	// and trip the threshold-3 breaker; then healthy forever.
	script, _ := ParseFaultScript("b:down*3,ok*")
	c, site, clk := newResilientPair(t, inner, script, func(cfg *Config) {
		cfg.Breaker = BreakerConfig{FailureThreshold: 3, OpenInterval: 2 * time.Second}
	})
	reg := metrics.NewRegistry()
	c.Register(reg)
	ctx := context.Background()

	// First call burns its whole retry budget on injected failures and
	// trips the breaker.
	if _, _, _, err := c.ExecuteLeg(ctx, dsa.Leg{SiteID: site}, "dijkstra", 0); !errors.Is(err, ErrPeerDown) {
		t.Fatalf("first leg = %v, want ErrPeerDown", err)
	}
	if got := c.health.State("b"); got != BreakerOpen {
		t.Fatalf("breaker after retry exhaustion = %v, want open", got)
	}

	// While open: fail-fast refusal, typed both ways, transport untouched.
	_, _, _, err := c.ExecuteLeg(ctx, dsa.Leg{SiteID: site}, "dijkstra", 0)
	if !errors.Is(err, ErrBreakerOpen) || !errors.Is(err, ErrPeerDown) {
		t.Fatalf("open-breaker leg = %v, want ErrBreakerOpen wrapping ErrPeerDown", err)
	}
	if got := inner.count(); got != 0 {
		t.Fatalf("open breaker let %d RPCs through", got)
	}

	// Open interval elapses: the next leg is the half-open probe, the
	// script is healthy now, so it closes the breaker and serves.
	clk.Advance(2 * time.Second)
	if _, _, _, err := c.ExecuteLeg(ctx, dsa.Leg{SiteID: site}, "dijkstra", 0); err != nil {
		t.Fatalf("post-recovery leg: %v", err)
	}
	if got := c.health.State("b"); got != BreakerClosed {
		t.Fatalf("breaker after successful probe = %v, want closed", got)
	}
	if got := inner.count(); got != 1 {
		t.Errorf("recovered peer saw %d RPCs, want 1", got)
	}

	snap := reg.Snapshot()
	if got := snap[`tc_peer_breaker_state{peer="b"}`]; got != float64(BreakerClosed) {
		t.Errorf("breaker state gauge = %v, want %v", got, float64(BreakerClosed))
	}
	for _, to := range []string{"open", "half_open", "closed"} {
		key := fmt.Sprintf(`tc_peer_breaker_transitions_total{peer="b",to=%q}`, to)
		if snap[key] < 1 {
			t.Errorf("transition counter %s = %v, want >= 1", key, snap[key])
		}
	}
	if states := c.BreakerStates(); states["b"] != "closed" {
		t.Errorf("BreakerStates = %v, want b closed", states)
	}
	if c.Degraded() {
		t.Error("Degraded() = true with every breaker closed")
	}
}

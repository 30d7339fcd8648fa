package cluster

import (
	"context"
	"errors"
	"sync"
	"time"
)

// Per-peer health tracking: a classic circuit breaker (closed → open →
// half-open) fed by every RPC outcome through observeRPC. The breaker
// protects two things at once — the coordinator, which stops burning
// its latency budget on a peer that is demonstrably down, and the
// peer, which gets a quiet open-interval to recover instead of a
// thundering herd of retries the moment it limps back. All timing goes
// through an injected clock so tests drive transitions deterministically.

// BreakerState is a breaker's position in the closed → open →
// half-open cycle. The zero value is Closed (healthy).
type BreakerState int32

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen admits a single in-flight probe RPC after the
	// open interval; its success closes the breaker, its failure
	// re-opens it.
	BreakerHalfOpen
	// BreakerOpen refuses traffic until the open interval elapses.
	BreakerOpen
)

// String returns the state's metric/stats label.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half_open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// BreakerConfig tunes the per-peer circuit breakers.
type BreakerConfig struct {
	// FailureThreshold is the consecutive transport-failure count
	// (ErrPeerDown / ErrPeerTimeout) that trips a closed breaker
	// (default 5). Protocol-level errors — epoch skew, bad responses —
	// prove the peer is alive and never count.
	FailureThreshold int
	// OpenInterval is how long a tripped breaker refuses traffic before
	// admitting a half-open probe (default 2s).
	OpenInterval time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.OpenInterval <= 0 {
		c.OpenInterval = 2 * time.Second
	}
	return c
}

// rpcOutcome classifies one RPC result for the breaker.
type rpcOutcome int

const (
	// outcomeSuccess: the peer answered. Protocol errors (epoch skew,
	// bad response, application errors) land here too — a peer that
	// answers wrongly is alive, and tripping the breaker on it would
	// convert a coherence bug into silent local fallback.
	outcomeSuccess rpcOutcome = iota
	// outcomeFailure: the peer is unreachable or unresponsive.
	outcomeFailure
	// outcomeNeutral: the caller gave up (ctx canceled); says nothing
	// about the peer.
	outcomeNeutral
)

// classifyOutcome maps an RPC error to its breaker outcome. Order
// matters: a caller-canceled ctx can also look like a timeout, so
// neutral is checked first via the transport's classification (which
// already distinguishes ctx.Canceled from deadline expiry).
func classifyOutcome(err error) rpcOutcome {
	switch {
	case err == nil:
		return outcomeSuccess
	case errors.Is(err, context.Canceled):
		return outcomeNeutral
	case errors.Is(err, ErrPeerDown), errors.Is(err, ErrPeerTimeout):
		return outcomeFailure
	}
	return outcomeSuccess
}

// breaker is one peer's circuit breaker. All fields are guarded by mu;
// the clock is injected for deterministic tests.
type breaker struct {
	mu       sync.Mutex
	cfg      BreakerConfig
	clock    func() time.Time
	onChange func(state BreakerState) // called under mu; nil until Register

	state    BreakerState
	failures int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // the half-open probe is in flight
}

func newBreaker(cfg BreakerConfig, clock func() time.Time) *breaker {
	return &breaker{cfg: cfg.withDefaults(), clock: clock}
}

func (b *breaker) transition(to BreakerState) {
	if b.state == to {
		return
	}
	b.state = to
	if b.onChange != nil {
		b.onChange(to)
	}
}

// Allow reports whether an RPC to this peer may proceed. In open state
// it flips to half-open once the open interval has elapsed; in
// half-open it grants the probe token unless a probe is in flight.
// Every allowed RPC must be matched by exactly one Record call.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.clock().Sub(b.openedAt) < b.cfg.OpenInterval {
			return false
		}
		b.transition(BreakerHalfOpen)
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// Record feeds one RPC outcome back. Failures count toward the trip
// threshold while closed and re-open a half-open breaker immediately;
// a successful half-open probe closes it. Neutral outcomes (caller
// canceled) only release the probe token. Outcomes that straggle in
// after the breaker re-opened are ignored — they describe RPCs
// launched under an older state.
func (b *breaker) Record(err error) {
	out := classifyOutcome(err)
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		switch out {
		case outcomeSuccess:
			b.failures = 0
		case outcomeFailure:
			b.failures++
			if b.failures >= b.cfg.FailureThreshold {
				b.trip()
			}
		}
	case BreakerHalfOpen:
		b.probing = false
		switch out {
		case outcomeSuccess:
			b.failures = 0
			b.transition(BreakerClosed)
		case outcomeFailure:
			b.trip()
		}
	case BreakerOpen:
		// Straggler from before the trip: nothing to learn.
	}
}

// trip opens the breaker and stamps the open interval. Caller holds mu.
func (b *breaker) trip() {
	b.failures = 0
	b.probing = false
	b.openedAt = b.clock()
	b.transition(BreakerOpen)
}

// State returns the breaker's current state. An elapsed open interval
// still reads as open: the transition to half-open only happens on the
// next Allow, keeping state changes single-sourced.
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// health is the coordinator's per-peer breaker registry, primed with
// every remote peer at New so lookups are lock-free reads of an
// immutable map.
type health struct {
	breakers map[string]*breaker
}

func newHealth(peers []Node, self string, cfg BreakerConfig, clock func() time.Time) *health {
	h := &health{breakers: make(map[string]*breaker)}
	for _, n := range peers {
		if n.ID != self {
			h.breakers[n.ID] = newBreaker(cfg, clock)
		}
	}
	return h
}

// Allow reports whether an RPC to peer may proceed right now.
func (h *health) Allow(peer string) bool {
	b := h.breakers[peer]
	if b == nil {
		return true
	}
	return b.Allow()
}

// Record feeds an RPC outcome into peer's breaker.
func (h *health) Record(peer string, err error) {
	if b := h.breakers[peer]; b != nil {
		b.Record(err)
	}
}

// State returns peer's breaker state (closed for unknown peers).
func (h *health) State(peer string) BreakerState {
	if b := h.breakers[peer]; b != nil {
		return b.State()
	}
	return BreakerClosed
}

// setOnChange installs a state-transition hook on every breaker —
// called once by Register, before traffic, to wire metrics.
func (h *health) setOnChange(fn func(peer string, state BreakerState)) {
	for id, b := range h.breakers {
		id := id
		b.mu.Lock()
		b.onChange = func(s BreakerState) { fn(id, s) }
		b.mu.Unlock()
	}
}

// States snapshots every peer's breaker state — the /stats and /readyz
// view.
func (h *health) States() map[string]string {
	out := make(map[string]string, len(h.breakers))
	for id, b := range h.breakers {
		out[id] = b.State().String()
	}
	return out
}

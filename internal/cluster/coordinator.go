package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dsa"
	"repro/internal/metrics"
	"repro/internal/tc"
)

// This file is the coordinator's execution side: shipping one leg to
// its remote owner and fanning an update transaction out to every
// peer, both instrumented per peer. The scatter half of scatter-gather
// lives in the serving layer (it owns the plan and the merge); the
// coordinator owns everything that crosses the wire.

// clusterMetrics instruments the transport seam. All handles are
// created lazily by Register — a coordinator without a registry (unit
// tests, bare library use) runs unobserved at zero cost.
type clusterMetrics struct {
	// rpcLatency is tc_peer_rpc_duration_seconds{peer,rpc}: wall-clock
	// latency of each peer round trip, by peer ID and RPC kind
	// (leg | update).
	rpcLatency *metrics.HistogramVec
	// rpcErrors is tc_peer_rpc_errors_total{peer,code}: failed round
	// trips by peer and typed failure code.
	rpcErrors *metrics.CounterVec
	// legFanout is tc_leg_fanout_total{peer}: legs shipped to each
	// remote owner.
	legFanout *metrics.CounterVec
	// rpcSuccess is tc_peer_rpc_success_total{peer}: successful round
	// trips by peer — the reconvergence signal the chaos gate watches
	// after a restarted node's breaker closes.
	rpcSuccess *metrics.CounterVec
	// legsLocal is tc_legs_local_total: legs this node owned and
	// executed in-process.
	legsLocal *metrics.Counter
	// updateFanout is tc_update_fanout_total{peer}: update transactions
	// forwarded to each peer.
	updateFanout *metrics.CounterVec
	// legRetries is tc_cluster_leg_retries_total{peer}: leg RPC retry
	// attempts beyond the first, by peer.
	legRetries *metrics.CounterVec
	// legFallback is tc_cluster_leg_fallback_total{peer}: remote-owned
	// legs executed locally in degraded mode because their owner was
	// unreachable, by owner.
	legFallback *metrics.CounterVec
	// breakerState is tc_peer_breaker_state{peer}: each peer breaker's
	// current position (0 closed, 1 half-open, 2 open).
	breakerState *metrics.GaugeVec
	// breakerTransitions is tc_peer_breaker_transitions_total{peer,to}:
	// breaker state changes, by peer and destination state.
	breakerTransitions *metrics.CounterVec
}

// Register creates the coordinator's metric families in reg — called
// once by the serving layer at deploy time, before traffic.
func (c *Coordinator) Register(reg *metrics.Registry) {
	m := &clusterMetrics{}
	m.rpcLatency = reg.HistogramVec("tc_peer_rpc_duration_seconds",
		"Peer RPC round-trip latency, by peer and RPC kind.",
		nil, "peer", "rpc")
	m.rpcErrors = reg.CounterVec("tc_peer_rpc_errors_total",
		"Failed peer RPCs, by peer and typed failure code.", "peer", "code")
	m.legFanout = reg.CounterVec("tc_leg_fanout_total",
		"Legs shipped to remote owners, by peer.", "peer")
	m.rpcSuccess = reg.CounterVec("tc_peer_rpc_success_total",
		"Successful peer RPC round trips, by peer.", "peer")
	m.legsLocal = reg.Counter("tc_legs_local_total",
		"Legs owned and executed by this node in-process.")
	m.updateFanout = reg.CounterVec("tc_update_fanout_total",
		"Update transactions forwarded to peers, by peer.", "peer")
	m.legRetries = reg.CounterVec("tc_cluster_leg_retries_total",
		"Leg RPC retry attempts beyond the first, by peer.", "peer")
	m.legFallback = reg.CounterVec("tc_cluster_leg_fallback_total",
		"Remote-owned legs executed locally in degraded mode, by owner.", "peer")
	m.breakerState = reg.GaugeVec("tc_peer_breaker_state",
		"Peer circuit-breaker state (0 closed, 1 half-open, 2 open).", "peer")
	m.breakerTransitions = reg.CounterVec("tc_peer_breaker_transitions_total",
		"Peer circuit-breaker state transitions, by peer and new state.", "peer", "to")
	c.m = m
	for _, n := range c.nodes {
		if n.ID != c.self.ID {
			m.breakerState.With(n.ID).Set(float64(BreakerClosed))
		}
	}
	c.health.setOnChange(func(peer string, state BreakerState) {
		m.breakerState.With(peer).Set(float64(state))
		m.breakerTransitions.With(peer, state.String()).Inc()
	})
}

// LocalLeg records one leg this node owned and ran in-process — the
// local side of the fan-out ratio.
func (c *Coordinator) LocalLeg() {
	if c.m != nil {
		c.m.legsLocal.Inc()
	}
}

// observeRPC records one peer round trip: it always feeds the
// breaker (health tracking runs even unobserved) and, when a registry
// is wired, the per-peer metrics.
func (c *Coordinator) observeRPC(peer, rpc string, took time.Duration, err error) {
	c.health.Record(peer, err)
	if c.m == nil {
		return
	}
	c.m.rpcLatency.With(peer, rpc).Observe(took.Seconds())
	if err != nil {
		c.m.rpcErrors.With(peer, errCode(err)).Inc()
	} else {
		c.m.rpcSuccess.With(peer).Inc()
	}
}

// errCode is the bounded label vocabulary of rpcErrors. Breaker-open
// refusals are checked first: they wrap ErrPeerDown for taxonomy
// compatibility but deserve their own label.
func errCode(err error) string {
	switch {
	case errors.Is(err, ErrBreakerOpen):
		return "breaker_open"
	case errors.Is(err, ErrPeerTimeout):
		return "peer_timeout"
	case errors.Is(err, ErrPeerDown):
		return "peer_down"
	case errors.Is(err, ErrEpochSkew):
		return "epoch_skew"
	case errors.Is(err, ErrBadPeerResponse):
		return "bad_peer_response"
	}
	return "other"
}

// FallbackLeg records one remote-owned leg for site executed locally
// in degraded mode — the serving layer calls this after a successful
// local fallback so degradation is visible, never silent.
func (c *Coordinator) FallbackLeg(site int) {
	if c.m != nil {
		c.m.legFallback.With(c.Owner(site).ID).Inc()
	}
}

// ExecuteLeg ships one leg to its site's remote owner at the pinned
// epoch and returns the leg's exit block, built straight from the facts
// of its exits the owner ships (LegResponse.Block); a leg with no exit
// set gets the owner's whole table and a block with no exit. A fact
// from a node that is not an entry node of the leg is an
// ErrBadPeerResponse. The site must not be local (the caller routes
// local sites through its own executor). A peer answering from a
// different generation than it was asked for is an ErrEpochSkew — the
// response echo is the coherence check.
//
// Legs are pure epoch-pinned reads, so transport failures (peer
// down/timeout) are retried up to the configured attempt budget with
// exponential backoff + full jitter, all inside the caller's ctx
// deadline. The owner's circuit breaker gates every attempt: an open
// breaker refuses immediately with an error that matches both
// ErrBreakerOpen and ErrPeerDown, letting the serving layer fall back
// to local execution without a new error path.
func (c *Coordinator) ExecuteLeg(ctx context.Context, leg dsa.Leg, engine string, epoch uint64) (*dsa.ExitBlock, tc.Stats, bool, error) {
	site := leg.SiteID
	owner := c.Owner(site)
	t := c.transports[owner.ID]
	if t == nil {
		//tcvet:ignore typederr API-misuse guard caught before any RPC; it never crosses the wire
		return nil, tc.Stats{}, false, fmt.Errorf("cluster: site %d is owned locally by %s; remote execution is for remote owners", site, c.self.ID)
	}
	req := NewLegRequest(site, leg.Entry, engine, epoch)
	req.Exit = ids[int64](leg.Exit)
	var lastErr error
	for attempt := 1; attempt <= c.retry.Attempts; attempt++ {
		if attempt > 1 {
			if err := c.sleep(ctx, c.jitter(c.retry.backoff(attempt-1))); err != nil {
				break // caller's deadline consumed the retry budget
			}
			if c.m != nil {
				c.m.legRetries.With(owner.ID).Inc()
			}
		}
		if !c.health.Allow(owner.ID) {
			lastErr = fmt.Errorf("cluster: %w (%w): peer %s refusing leg for site %d until the open interval elapses",
				ErrBreakerOpen, ErrPeerDown, owner.ID, site)
			break // retrying against an open breaker is pointless
		}
		rpcCtx, cancel := context.WithTimeout(ctx, c.timeout)
		start := time.Now() //tcvet:ignore bannedcall latency stamp around the RPC — measurement, not control flow
		resp, err := t.ExecuteLeg(rpcCtx, req)
		cancel()
		c.observeRPC(owner.ID, "leg", time.Since(start), err)
		if err != nil {
			lastErr = err
			if !retryable(err) {
				return nil, tc.Stats{}, false, err
			}
			continue
		}
		if resp.Epoch != epoch {
			return nil, tc.Stats{}, false, fmt.Errorf("cluster: %w: peer %s answered leg for site %d at epoch %d, want %d",
				ErrEpochSkew, owner.ID, site, resp.Epoch, epoch)
		}
		block, stats, err := resp.Block(leg)
		if err != nil {
			return nil, tc.Stats{}, false, err
		}
		if c.m != nil {
			c.m.legFanout.With(owner.ID).Inc()
		}
		return block, stats, resp.CacheHit, nil
	}
	return nil, tc.Stats{}, false, lastErr
}

// PeerAck is one peer's acknowledgement of a fanned-out update.
type PeerAck struct {
	// Node is the acking peer's ID.
	Node string `json:"node"`
	// Epoch is the generation the peer landed on.
	Epoch uint64 `json:"epoch"`
}

// FanOutUpdate forwards one applied update transaction to every peer
// in parallel and verifies the coherent epoch swap: each peer must ack
// exactly wantEpoch (the epoch the local apply produced — every node
// replays the same batch sequence, so generations advance in
// lockstep). Any transport failure or diverging ack surfaces as a
// typed error; the returned acks cover the peers that answered, for
// the response's audit trail. On error the cluster must be considered
// incoherent until a retry (or operator intervention) converges it —
// subsequent cross-node reads will fail with ErrEpochSkew rather than
// mix generations.
func (c *Coordinator) FanOutUpdate(ctx context.Context, ops []UpdateOp, wantEpoch uint64) ([]PeerAck, error) {
	peers := make([]Node, 0, len(c.transports))
	for _, n := range c.nodes {
		if n.ID != c.self.ID {
			peers = append(peers, n)
		}
	}
	acks := make([]PeerAck, len(peers))
	errs := make([]error, len(peers))
	var wg sync.WaitGroup
	for i, peer := range peers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := c.transports[peer.ID]
			rpcCtx, cancel := context.WithTimeout(ctx, c.timeout)
			defer cancel()
			start := time.Now() //tcvet:ignore bannedcall latency stamp around the RPC — measurement, not control flow
			ack, err := t.ForwardUpdate(rpcCtx, &UpdateRequest{Ops: ops})
			if err == nil && ack.Epoch != wantEpoch {
				err = fmt.Errorf("cluster: %w: peer %s acked update at epoch %d, want %d",
					ErrEpochSkew, peer.ID, ack.Epoch, wantEpoch)
			}
			c.observeRPC(peer.ID, "update", time.Since(start), err)
			if err != nil {
				errs[i] = err
				return
			}
			if c.m != nil {
				c.m.updateFanout.With(peer.ID).Inc()
			}
			acks[i] = PeerAck{Node: peer.ID, Epoch: ack.Epoch}
		}()
	}
	wg.Wait()
	good := acks[:0]
	for i := range acks {
		if errs[i] == nil {
			good = append(good, acks[i])
		}
	}
	return good, errors.Join(errs...)
}

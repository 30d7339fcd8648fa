// Package cluster makes leg execution location-transparent: a static
// membership of tcserver nodes, a consistent-hash ring assigning every
// site (fragment) an owning node, and an HTTP/JSON transport that
// ships leg computations to their owners. It is the paper's
// distribution model made real — fragments are worked on by different
// sites and only the small (entry, exit, cost) complementary tables
// cross the wire — layered behind the serving layer's executor so a
// query fans its site route across the cluster and assembles the legs
// exactly as it would locally.
//
// Deployment model: every node builds the identical store from the
// identical input (same graph + fragmentation, same update batch
// sequence), so the ring shards *work* — CPU and leg-cache locality —
// not data. Site i's legs always execute on owner(i), which therefore
// accumulates the complete cache working set for its sites instead of
// every node caching everything. Updates fan out to every peer and the
// epoch is the coherence token: each leg RPC carries the coordinator's
// pinned epoch, and a peer that cannot serve that generation answers
// with a typed epoch-skew refusal instead of silently mixing
// generations.
package cluster

import (
	"context"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"time"
)

// Node is one tcserver process of a static cluster membership.
type Node struct {
	// ID is the node's stable name (the -node-id flag).
	ID string `json:"id"`
	// URL is the node's base HTTP address, e.g. http://10.0.0.1:8642.
	URL string `json:"url"`
}

// ParsePeers parses a static membership list of the -peers flag form
// "a=http://host1:8642,b=http://host2:8642". IDs and URLs must be
// non-empty and unique; URLs must be absolute http(s) addresses.
func ParsePeers(s string) ([]Node, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("cluster: empty peer list: %w", ErrBadConfig)
	}
	var nodes []Node
	seenID := map[string]bool{}
	seenURL := map[string]bool{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		id, addr = strings.TrimSpace(id), strings.TrimSpace(addr)
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: bad peer %q (want id=url): %w", part, ErrBadConfig)
		}
		u, err := url.Parse(addr)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return nil, fmt.Errorf("cluster: bad peer URL %q (want http(s)://host:port): %w", addr, ErrBadConfig)
		}
		if seenID[id] {
			return nil, fmt.Errorf("cluster: duplicate peer id %q: %w", id, ErrBadConfig)
		}
		if seenURL[addr] {
			return nil, fmt.Errorf("cluster: duplicate peer URL %q: %w", addr, ErrBadConfig)
		}
		seenID[id] = true
		seenURL[addr] = true
		nodes = append(nodes, Node{ID: id, URL: strings.TrimRight(addr, "/")})
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list: %w", ErrBadConfig)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	return nodes, nil
}

// Config describes one node's view of the cluster.
type Config struct {
	// NodeID names this node; it must appear in Peers.
	NodeID string
	// Peers is the full static membership, this node included.
	Peers []Node
	// Timeout bounds each peer RPC (default 5s).
	Timeout time.Duration
	// Breaker tunes the per-peer circuit breakers; zero fields take
	// defaults (trip after 5 consecutive failures, 2s open interval).
	Breaker BreakerConfig
	// Retry tunes leg-read retries; zero fields take defaults (3 total
	// attempts, 25ms base backoff doubling to a 250ms cap, full jitter).
	Retry RetryConfig
	// Clock supplies the breakers' time source; nil selects time.Now.
	// Tests inject a fake clock to drive open→half-open transitions
	// without sleeping.
	Clock func() time.Time
	// NewTransport builds the transport for one peer; nil selects the
	// HTTP/JSON transport. Tests inject in-process transports here.
	NewTransport func(Node) Transport
}

// Coordinator is one node's routing + fan-out brain: the membership,
// the site→node ring and one transport per peer. It is immutable after
// New and safe for concurrent use.
type Coordinator struct {
	self       Node
	nodes      []Node // sorted by ID, self included
	ring       *ring
	transports map[string]Transport // remote peers only
	timeout    time.Duration
	health     *health
	retry      RetryConfig
	jitter     func(time.Duration) time.Duration // tests pin this
	sleep      func(context.Context, time.Duration) error
	m          *clusterMetrics
}

// New validates the membership and builds the coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("cluster: no peers configured: %w", ErrBadConfig)
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now //tcvet:ignore bannedcall the default wiring that SELECTS the wall clock when none is injected
	}
	nodes := append([]Node(nil), cfg.Peers...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	c := &Coordinator{
		nodes:      nodes,
		ring:       newRing(nodes),
		transports: make(map[string]Transport),
		timeout:    cfg.Timeout,
		retry:      cfg.Retry.withDefaults(),
		jitter:     fullJitter,
		sleep:      sleepCtx,
	}
	selfIdx := -1
	for i, n := range nodes {
		if i > 0 && nodes[i-1].ID == n.ID {
			return nil, fmt.Errorf("cluster: duplicate peer id %q: %w", n.ID, ErrBadConfig)
		}
		if n.ID == cfg.NodeID {
			selfIdx = i
		}
	}
	if selfIdx < 0 {
		return nil, fmt.Errorf("cluster: node id %q not in peer list: %w", cfg.NodeID, ErrBadConfig)
	}
	c.self = nodes[selfIdx]
	newTransport := cfg.NewTransport
	if newTransport == nil {
		newTransport = func(n Node) Transport { return NewHTTPTransport(n, cfg.Timeout) }
	}
	for _, n := range nodes {
		if n.ID != c.self.ID {
			c.transports[n.ID] = newTransport(n)
		}
	}
	c.health = newHealth(nodes, c.self.ID, cfg.Breaker, cfg.Clock)
	return c, nil
}

// Self returns this node's membership entry.
func (c *Coordinator) Self() Node { return c.self }

// Nodes returns the full membership, sorted by ID.
func (c *Coordinator) Nodes() []Node { return append([]Node(nil), c.nodes...) }

// Owner returns the node the ring assigns site to.
func (c *Coordinator) Owner(site int) Node { return c.nodes[c.ring.owner(site)] }

// IsLocal reports whether this node owns site's legs.
func (c *Coordinator) IsLocal(site int) bool { return c.Owner(site).ID == c.self.ID }

// BreakerStates snapshots every remote peer's circuit-breaker state —
// the /stats and /readyz health view.
func (c *Coordinator) BreakerStates() map[string]string { return c.health.States() }

// Degraded reports whether any peer's breaker is not closed — the
// /readyz verdict: the node still answers correctly (legs fall back
// locally) but is running without its full cluster.
func (c *Coordinator) Degraded() bool {
	for _, state := range c.health.States() {
		if state != BreakerClosed.String() {
			return true
		}
	}
	return false
}

// Placement maps every site of [0, sites) to its owning node ID —
// the routing table view served at /stats and logged at startup.
func (c *Coordinator) Placement(sites int) map[string][]int {
	out := make(map[string][]int, len(c.nodes))
	for _, n := range c.nodes {
		out[n.ID] = []int{}
	}
	for s := 0; s < sites; s++ {
		id := c.Owner(s).ID
		out[id] = append(out[id], s)
	}
	return out
}

package cluster

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Bounded retries for idempotent leg reads. Update fan-out stays
// single-shot: retrying a write after an ambiguous failure could
// double-apply on a peer that processed the first attempt, and the
// epoch-echo coherence check depends on exactly-once forwarding.
// Legs are pure reads pinned to an epoch — replaying one is free.

// RetryConfig tunes leg-read retries.
type RetryConfig struct {
	// Attempts is the total number of tries per leg, first included
	// (default 3, i.e. up to two retries). 1 disables retries.
	Attempts int
	// BaseBackoff is the pre-jitter backoff before the first retry
	// (default 25ms); it doubles per retry, up to maxBackoff.
	BaseBackoff time.Duration
}

// maxBackoff caps the pre-jitter backoff.
const maxBackoff = 250 * time.Millisecond

func (c RetryConfig) withDefaults() RetryConfig {
	if c.Attempts <= 0 {
		c.Attempts = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 25 * time.Millisecond
	}
	return c
}

// backoff returns the pre-jitter delay before the retry-th retry
// (1-based): BaseBackoff doubled per step, capped at maxBackoff.
func (c RetryConfig) backoff(retry int) time.Duration {
	d := c.BaseBackoff
	for i := 1; i < retry && d < maxBackoff; i++ {
		d *= 2
	}
	return min(d, maxBackoff)
}

// retryable reports whether a leg RPC error is worth another attempt.
// Only transport-level failures qualify: protocol errors (epoch skew,
// bad response) and caller cancellation would fail identically again.
func retryable(err error) bool {
	return classifyOutcome(err) == outcomeFailure
}

// fullJitter applies full jitter: a uniform draw from [0, d]. Full
// jitter (vs equal or decorrelated) maximally de-synchronizes the
// retry herd when many queries hit the same dead owner at once.
func fullJitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return time.Duration(jitterSource.Int63n(int64(d) + 1))
}

// jitterSource is a dedicated, locked PRNG so fullJitter never
// contends with other rand users and tests can't perturb it.
var jitterSource = rand.New(&lockedRandSource{src: rand.NewSource(1)})

type lockedRandSource struct {
	mu  sync.Mutex
	src rand.Source
}

func (s *lockedRandSource) Int63() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.src.Int63()
}

func (s *lockedRandSource) Seed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.src.Seed(seed)
}

// sleepCtx waits for d or until ctx is done, whichever comes first,
// returning ctx.Err() if the context won. Retry backoff always goes
// through this so a caller's deadline bounds the whole retry budget.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

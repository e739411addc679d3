package simclient

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// Backoff is the client's retry policy: bounded, context-aware,
// jittered exponential backoff with server override. Delays grow as
// Base·2ⁿ, are clamped to Cap, and are then jittered down by up
// to the Jitter fraction so a fleet of clients retrying after one
// server restart doesn't reconverge as a synchronized thundering herd.
// A 429's Retry-After header is authoritative and replaces the
// computed delay (jittered up, never down — the server asked for at
// least that much quiet).
//
// Retryable reports which failures are worth another attempt. The
// table, by cause:
//
//	transport error (dial refused/reset, broken or truncated stream)
//	                  → retry: the server is restarting or mid-crash;
//	                    riding it out is the whole point
//	429 overloaded    → retry, honouring Retry-After: admission shed
//	                    the request, capacity will return
//	503 draining      → retry: a graceful restart is in progress and a
//	                    fresh process will take the next attempt
//	502 bad gateway   → retry: an intermediary blip, not the request
//	400/404/405/413/422 → fail: a property of the request or submitted
//	                    content; identical on every attempt
//	500 invariant     → fail: deterministic simulator fault — the same
//	                    job will fault the same way again
//	504 timeout fault → fail: the job deterministically exceeds its
//	                    time budget
//	context cancelled / deadline exceeded
//	                  → fail: the caller gave up; never outlive it
type Backoff struct {
	// Base is the pre-jitter delay before the first retry
	// (default 250ms).
	Base time.Duration
	// Cap bounds any single computed delay (default 5s). Retry-After
	// may exceed it: the server's word wins.
	Cap time.Duration
	// Jitter in [0,1] is the fraction of each delay that is
	// randomized (default 0.5: delays land in [d/2, d]).
	Jitter float64
	// Attempts bounds total tries including the first (default 10).
	Attempts int

	// rnd overrides the jitter source in tests (uniform in [0,1)).
	rnd func() float64
	// sleep overrides context-aware sleeping in tests.
	sleep func(ctx context.Context, d time.Duration) error

	mu sync.Mutex // guards the lazily built default rng
	r  *rand.Rand
}

// DefaultBackoff returns the production policy: 250ms base, 5s cap,
// doubling, half-range jitter, 10 attempts (≈30s of patience — enough
// to ride out a server restart, bounded enough to fail a dead one).
func DefaultBackoff() *Backoff { return &Backoff{} }

func (b *Backoff) base() time.Duration {
	if b.Base > 0 {
		return b.Base
	}
	return 250 * time.Millisecond
}

func (b *Backoff) cap() time.Duration {
	if b.Cap > 0 {
		return b.Cap
	}
	return 5 * time.Second
}

func (b *Backoff) jitter() float64 {
	switch {
	case b.Jitter < 0:
		return 0
	case b.Jitter == 0:
		return 0.5
	case b.Jitter > 1:
		return 1
	}
	return b.Jitter
}

// MaxAttempts returns the effective attempt bound.
func (b *Backoff) MaxAttempts() int {
	if b.Attempts > 0 {
		return b.Attempts
	}
	return 10
}

func (b *Backoff) random() float64 {
	if b.rnd != nil {
		return b.rnd()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.r == nil {
		b.r = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return b.r.Float64()
}

// Delay returns the jittered delay before retry number attempt
// (0-based: Delay(0) follows the first failure).
func (b *Backoff) Delay(attempt int) time.Duration {
	d := float64(b.base())
	for i := 0; i < attempt && d < float64(b.cap()); i++ {
		d *= 2
	}
	if d > float64(b.cap()) {
		d = float64(b.cap())
	}
	j := b.jitter()
	d = d * (1 - j*b.random())
	return time.Duration(d)
}

// DelayFor returns the delay before retry `attempt` given the error
// that caused it: a server Retry-After hint overrides the computed
// schedule (jittered upward by up to half the jitter fraction, so a
// shed fleet doesn't return in lockstep at the exact estimate).
func (b *Backoff) DelayFor(attempt int, err error) time.Duration {
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > 0 {
		return ae.RetryAfter + time.Duration(float64(ae.RetryAfter)*b.jitter()*0.5*b.random())
	}
	return b.Delay(attempt)
}

// RetryableStatus is the one shared classification of HTTP statuses
// worth another attempt — used by Backoff for same-target retries and
// by the cluster coordinator to decide re-route vs fail-fast. The
// split matters for the coordinator: a retryable status (or a
// transport error) means the *worker* is the problem, so the job may
// be replayed on another worker — content addressing makes the replay
// free. A non-retryable status is a property of the *job*, so sending
// it to a different worker would just fail (or fault) identically and
// burn a second core:
//
//	429 overloaded     → retryable: the worker shed it; honour
//	                     Retry-After on the same worker — its cache
//	                     shard still makes it the cheapest home
//	502 bad gateway    → retryable: intermediary blip
//	503 draining       → retryable: a graceful restart/deregister is
//	                     in progress; the coordinator re-routes
//	400/404/405/413/422 → fail fast: malformed or wedging content,
//	                     identical on every worker — MUST NOT be
//	                     retried elsewhere
//	500 invariant      → fail fast: deterministic simulator fault
//	504 timeout fault  → fail fast: the job deterministically exceeds
//	                     its budget
func RetryableStatus(status int) bool {
	switch status {
	case 429, 502, 503:
		return true
	}
	return false
}

// Retryable classifies an error per the table in the type comment.
func (b *Backoff) Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return RetryableStatus(ae.Status)
	}
	// Everything else that survives the context check is
	// transport-shaped: dial failures, resets, truncated streams.
	return true
}

// Sleep waits d or until ctx ends, whichever comes first.
func (b *Backoff) Sleep(ctx context.Context, d time.Duration) error {
	if b.sleep != nil {
		return b.sleep(ctx, d)
	}
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

// Do runs fn under the policy: up to MaxAttempts tries, sleeping the
// scheduled delay between them, stopping early on success, on a
// non-retryable error, or when ctx ends (the context's error wins so
// the caller sees why the budget was cut short).
func (b *Backoff) Do(ctx context.Context, fn func() error) error {
	var err error
	for attempt := 0; attempt < b.MaxAttempts(); attempt++ {
		if err = fn(); err == nil || !b.Retryable(err) {
			return err
		}
		if attempt == b.MaxAttempts()-1 {
			break // last attempt failed; no point sleeping
		}
		if serr := b.Sleep(ctx, b.DelayFor(attempt, err)); serr != nil {
			return serr
		}
	}
	return err
}

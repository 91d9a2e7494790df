package server

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// RateLimitConfig shapes the per-tenant token buckets.
type RateLimitConfig struct {
	// GlobalRate is the total sustained submission rate (requests/sec)
	// the service budgets across all tenants. Each active tenant gets an
	// equal fair share of it: with n active tenants a tenant refills at
	// GlobalRate/n, so one tenant saturating its bucket cannot consume
	// capacity the others are entitled to. Zero disables rate limiting.
	GlobalRate float64
	// Burst is the per-tenant bucket capacity (0 = max(1, GlobalRate/4)):
	// how far a tenant can briefly exceed its sustained share.
	Burst float64
}

// idleAfter is how long a tenant must be silent before it stops counting
// as active for fair-share purposes. Idle tenants are evicted so a burst
// of one-off tenants does not permanently dilute everyone's share.
const idleAfter = time.Minute

// retryJitter widens each throttled client's Retry-After hint by a
// deterministic pseudo-random amount in [0, retryJitter × retry): clients
// throttled together get distinct retry horizons, so N federated
// balancers backing off from the same 429 burst do not resynchronize into
// a retry storm.
const retryJitter = 0.5

func (c RateLimitConfig) burst() float64 {
	if c.Burst > 0 {
		return c.Burst
	}
	if b := c.GlobalRate / 4; b > 1 {
		return b
	}
	return 1
}

// retryJitterFor widens a retry hint by a deterministic pseudo-random
// amount in [0, retryJitter × retry), keyed by (key, n). Like the repair
// backoff's FNV jitter, the schedule is a pure function of its inputs —
// no mutable RNG state — so two callers with distinct keys (or the same
// caller on consecutive rejections) are de-synchronized reproducibly.
func retryJitterFor(retry time.Duration, key string, n int64) time.Duration {
	window := time.Duration(retryJitter * float64(retry))
	if window <= 0 {
		return 0
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", key, n)
	return time.Duration(h.Sum64() % uint64(window))
}

// tenantBucket is one tenant's token bucket plus its counters.
type tenantBucket struct {
	tokens    float64
	last      time.Time // last refill
	seen      time.Time // last Allow call (for idle eviction)
	admitted  int64
	throttled int64
}

// TenantLimiter is the per-tenant rate limiter: a token bucket per
// tenant, refilled at an equal fair share of the global budget. The
// share is recomputed as tenants appear and go idle, so fairness holds
// under churn without static per-tenant configuration.
type TenantLimiter struct {
	mu      sync.Mutex
	cfg     RateLimitConfig
	buckets map[string]*tenantBucket
}

// NewTenantLimiter builds a limiter (nil-safe to use when
// cfg.GlobalRate is 0: every request is allowed).
func NewTenantLimiter(cfg RateLimitConfig) *TenantLimiter {
	return &TenantLimiter{cfg: cfg, buckets: make(map[string]*tenantBucket)}
}

// Allow consumes one token from tenant's bucket at time now. When the
// bucket is empty it reports false with the duration after which a
// retry could succeed (the Retry-After hint).
func (l *TenantLimiter) Allow(tenant string, now time.Time) (bool, time.Duration) {
	if l == nil || l.cfg.GlobalRate <= 0 {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evictIdle(now)
	b := l.buckets[tenant]
	if b == nil {
		b = &tenantBucket{tokens: l.cfg.burst(), last: now}
		l.buckets[tenant] = b
	}
	share := l.cfg.GlobalRate / float64(len(l.buckets))
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * share
		if max := l.cfg.burst(); b.tokens > max {
			b.tokens = max
		}
		b.last = now
	}
	b.seen = now
	if b.tokens >= 1 {
		b.tokens--
		b.admitted++
		return true, 0
	}
	b.throttled++
	retry := time.Duration((1 - b.tokens) / share * float64(time.Second))
	if retry < time.Millisecond {
		retry = time.Millisecond
	}
	retry += retryJitterFor(retry, tenant, b.throttled)
	return false, retry
}

// evictIdle drops tenants silent for longer than idleAfter; must be
// called with l.mu held.
func (l *TenantLimiter) evictIdle(now time.Time) {
	for t, b := range l.buckets {
		if !b.seen.IsZero() && now.Sub(b.seen) > idleAfter {
			delete(l.buckets, t)
		}
	}
}

// TenantCounts is one tenant's admitted/throttled totals.
type TenantCounts struct {
	Tenant    string `json:"tenant"`
	Admitted  int64  `json:"admitted"`
	Throttled int64  `json:"throttled"`
}

// Snapshot returns per-tenant counters for the active tenants, sorted by
// tenant name.
func (l *TenantLimiter) Snapshot() []TenantCounts {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]TenantCounts, 0, len(l.buckets))
	for t, b := range l.buckets {
		out = append(out, TenantCounts{Tenant: t, Admitted: b.admitted, Throttled: b.throttled})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

package server

import (
	"sync"
	"testing"
	"time"
)

var rlT0 = time.Unix(10000, 0).UTC()

// TestFairShareSplitsGlobalBudget: with two active tenants the global
// budget splits evenly — an aggressor hammering the API is capped at
// ~half the global rate while a light tenant inside its share is never
// throttled.
func TestFairShareSplitsGlobalBudget(t *testing.T) {
	l := NewTenantLimiter(RateLimitConfig{GlobalRate: 20, Burst: 5})
	now := rlT0
	aggressorAdmitted, lightAdmitted, lightThrottled := 0, 0, 0
	// 10 seconds of traffic: aggressor at 100 req/s, light tenant at 2
	// req/s (interleaved on the same clock).
	for i := 0; i < 1000; i++ {
		now = now.Add(10 * time.Millisecond)
		if ok, _ := l.Allow("aggressor", now); ok {
			aggressorAdmitted++
		}
		if i%50 == 0 { // every 500ms
			if ok, _ := l.Allow("light", now); ok {
				lightAdmitted++
			} else {
				lightThrottled++
			}
		}
	}
	if lightThrottled != 0 {
		t.Errorf("light tenant throttled %d times inside its share", lightThrottled)
	}
	if lightAdmitted != 20 {
		t.Errorf("light tenant admitted %d, want 20", lightAdmitted)
	}
	// Fair share is 10/s over 10s = 100, plus the initial burst of 5.
	if aggressorAdmitted > 110 || aggressorAdmitted < 90 {
		t.Errorf("aggressor admitted %d, want ~100..105 (share 10/s x 10s + burst 5)", aggressorAdmitted)
	}
}

// TestShareShrinksWithTenantCount: each additional active tenant dilutes
// everyone's refill rate, so N saturating tenants together stay at the
// global budget instead of N times it.
func TestShareShrinksWithTenantCount(t *testing.T) {
	l := NewTenantLimiter(RateLimitConfig{GlobalRate: 30, Burst: 1})
	now := rlT0
	tenants := []string{"a", "b", "c"}
	admitted := make(map[string]int)
	// Warm up all three buckets (consumes the 1-token burst each).
	for _, tn := range tenants {
		l.Allow(tn, now)
	}
	for i := 0; i < 3000; i++ { // 10s at 300 req/s offered per tenant
		now = now.Add(10 * time.Millisecond / 3)
		if ok, _ := l.Allow(tenants[i%3], now); ok {
			admitted[tenants[i%3]]++
		}
	}
	total := 0
	for _, tn := range tenants {
		// Share is 10/s each over ~10s.
		if admitted[tn] < 85 || admitted[tn] > 115 {
			t.Errorf("tenant %s admitted %d, want ~100", tn, admitted[tn])
		}
		total += admitted[tn]
	}
	if total > 330 {
		t.Errorf("three tenants admitted %d together, global budget is 300 over the window", total)
	}
}

// TestIdleTenantEvicted: a tenant that goes silent stops diluting the
// fair share, and the remaining tenant's share grows back.
func TestIdleTenantEvicted(t *testing.T) {
	l := NewTenantLimiter(RateLimitConfig{GlobalRate: 10, Burst: 1})
	now := rlT0
	l.Allow("a", now)
	l.Allow("b", now)
	if got := len(l.Snapshot()); got != 2 {
		t.Fatalf("%d tenants counted, want 2", got)
	}
	// Only a keeps talking; b goes idle past idleAfter.
	now = now.Add(idleAfter + time.Second)
	l.Allow("a", now)
	if got := len(l.Snapshot()); got != 1 {
		t.Fatalf("%d tenants counted after idle eviction, want 1", got)
	}
	// a now refills at the full global rate.
	start := now
	admitted := 0
	for i := 0; i < 200; i++ {
		now = now.Add(10 * time.Millisecond)
		if ok, _ := l.Allow("a", now); ok {
			admitted++
		}
	}
	elapsed := now.Sub(start).Seconds()
	if admitted < int(8*elapsed) {
		t.Errorf("sole tenant admitted %d in %.1fs, want close to global 10/s", admitted, elapsed)
	}
}

// TestThrottleRetryAfterHint: a throttled request gets a positive retry
// hint that, once waited out, admits the retry.
func TestThrottleRetryAfterHint(t *testing.T) {
	l := NewTenantLimiter(RateLimitConfig{GlobalRate: 2, Burst: 1})
	now := rlT0
	if ok, _ := l.Allow("a", now); !ok {
		t.Fatal("first request should consume the burst")
	}
	ok, retry := l.Allow("a", now)
	if ok {
		t.Fatal("second immediate request should be throttled")
	}
	if retry <= 0 {
		t.Fatalf("retry hint %v, want > 0", retry)
	}
	if ok, _ := l.Allow("a", now.Add(retry)); !ok {
		t.Fatalf("request after waiting the %v hint should be admitted", retry)
	}
}

// TestLimiterConcurrentAccess hammers the limiter from many goroutines
// under -race and checks global-budget conservation.
func TestLimiterConcurrentAccess(t *testing.T) {
	l := NewTenantLimiter(RateLimitConfig{GlobalRate: 40, Burst: 2})
	var wg sync.WaitGroup
	var mu sync.Mutex
	admitted := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := []string{"a", "b", "c", "d"}[g%4]
			now := rlT0
			local := 0
			for i := 0; i < 500; i++ {
				now = now.Add(5 * time.Millisecond)
				if ok, _ := l.Allow(tenant, now); ok {
					local++
				}
			}
			mu.Lock()
			admitted += local
			mu.Unlock()
		}(g)
	}
	wg.Wait()
	// 8 goroutines x 500 x 5ms = 2.5s of virtual time per goroutine; the
	// clocks overlap, so just bound well below the offered 4000.
	if admitted == 0 || admitted >= 4000 {
		t.Errorf("admitted %d of 4000 offered, want some but far from all", admitted)
	}
	snap := l.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot has %d tenants, want 4", len(snap))
	}
	sum := 0
	for _, tc := range snap {
		sum += int(tc.Admitted)
	}
	if sum != admitted {
		t.Errorf("per-tenant admitted sums to %d, counted %d", sum, admitted)
	}
}

// TestRetryHintsJittered: clients throttled in the same instant must get
// distinct retry horizons, so a burst of synchronized federated
// balancers does not come back as a synchronized retry storm. Covers
// both distinct tenants throttled together and one tenant throttled
// repeatedly; every hint stays within retryJitter of the exact one.
func TestRetryHintsJittered(t *testing.T) {
	l := NewTenantLimiter(RateLimitConfig{GlobalRate: 2, Burst: 1})
	now := rlT0
	// Two active tenants share 1/s each; with the burst spent and no time
	// passing, every throttle misses one whole token: the exact hint is 1s.
	const retry = time.Second
	inRange := func(who string, hint time.Duration) {
		t.Helper()
		if hint < retry || hint >= retry+retry/2 {
			t.Errorf("%s: hint %v outside [%v, %v)", who, hint, retry, retry+retry/2)
		}
	}
	// Burn both tenants' bursts, then throttle them at the same instant.
	l.Allow("a", now)
	l.Allow("b", now)
	_, retryA := l.Allow("a", now)
	_, retryB := l.Allow("b", now)
	inRange("a", retryA)
	inRange("b", retryB)
	if retryA == retryB {
		t.Errorf("tenants throttled together got identical retry horizons %v", retryA)
	}
	// The same tenant throttled again and again gets fresh jitter each time.
	prev := retryA
	for i := 0; i < 8; i++ {
		_, hint := l.Allow("a", now)
		inRange("a again", hint)
		if hint == prev {
			t.Errorf("consecutive throttles of one tenant got identical horizons %v", hint)
		}
		prev = hint
	}
}

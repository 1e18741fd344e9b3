// Admission control: dependency-free per-client token buckets in front
// of the expensive compile paths (POST /simulate, /sweep, /jobs). A
// single client looping sweeps can monopolize every engine worker; the
// bucket caps each client's sustained start rate while letting bursts
// through, and over-limit requests fail fast with 429 + Retry-After
// instead of queueing behind simulations. Clients are keyed by the
// remote address' host part — crude but dependency-free, and exactly
// right for the "one runaway script" failure mode this guards against.
package server

import (
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// admission is a set of per-client token buckets. Buckets refill at rps
// tokens per second up to burst; a request takes one token or is
// rejected with the time until one refills. The zero *admission (nil)
// disables admission entirely.
type admission struct {
	rps   float64
	burst float64

	// now is the clock, swappable in tests.
	now func() time.Time

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxAdmissionBuckets bounds the per-client map: when exceeded, the
// stalest buckets are dropped. A dropped bucket resurrects full, so an
// attacker cycling source addresses gains bursts at most — sustained
// throughput is still capped per address — while the server's memory
// stays bounded.
const maxAdmissionBuckets = 4096

func newAdmission(rps float64, burst int) *admission {
	if rps <= 0 {
		rps = 1
	}
	if burst < 1 {
		burst = 1
	}
	return &admission{
		rps:     rps,
		burst:   float64(burst),
		now:     time.Now,
		buckets: make(map[string]*bucket),
	}
}

// take attempts to admit one request for the client. It returns ok, or
// the duration after which a retry will be admitted.
func (a *admission) take(client string) (ok bool, retryAfter time.Duration) {
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.buckets[client]
	if b == nil {
		if len(a.buckets) >= maxAdmissionBuckets {
			a.evictStalestLocked()
		}
		b = &bucket{tokens: a.burst, last: now}
		a.buckets[client] = b
	}
	b.tokens = math.Min(a.burst, b.tokens+now.Sub(b.last).Seconds()*a.rps)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / a.rps * float64(time.Second))
}

// evictStalestLocked drops the quarter of buckets with the oldest
// activity. Evicting in batches amortizes the full scan.
func (a *admission) evictStalestLocked() {
	drop := len(a.buckets) / 4
	if drop < 1 {
		drop = 1
	}
	for ; drop > 0; drop-- {
		var (
			stalest string
			oldest  time.Time
			found   bool
		)
		for k, b := range a.buckets {
			if !found || b.last.Before(oldest) {
				stalest, oldest, found = k, b.last, true
			}
		}
		delete(a.buckets, stalest)
	}
}

// clientKey identifies the requester: the host part of RemoteAddr, so
// every port a client dials from shares one bucket.
func clientKey(r *http.Request) string {
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// admitted wraps an expensive handler with admission control. With no
// admission configured it is the handler itself.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.admit != nil {
			if ok, retry := s.admit.take(clientKey(r)); !ok {
				secs := int(math.Ceil(retry.Seconds()))
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.Itoa(secs))
				httpError(w, http.StatusTooManyRequests,
					"rate limit exceeded: retry in %ds", secs)
				return
			}
		}
		h(w, r)
	}
}

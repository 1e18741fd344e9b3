package workload

import (
	"sync"
	"testing"

	"repro/internal/trace"
)

// TestTraceCacheBudgetRace is the -race regression net for the
// byte-budget LRU: many goroutines materialize distinct traces whose
// combined footprint sits well past the budget, so evictions happen
// continuously while lookups, generations and a stats monitor run. The
// invariants under test:
//
//   - the resident footprint never exceeds the budget whenever the lock
//     is released (every slab here is smaller than the budget, so the
//     keep-exemption in evictLocked never legitimately overshoots);
//   - no double-eviction: the bytes counter equals the sum of resident
//     entries' sizes at all times (an entry evicted twice would be
//     subtracted twice and drive the counter negative);
//   - the evictions counter reconciles exactly with misses and residency.
func TestTraceCacheBudgetRace(t *testing.T) {
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)

	const n = 2_000 // records per slab
	slabBytes := int64(n) * trace.ColumnarRecordBytes
	budget := slabBytes*3 + slabBytes/2 // room for 3 slabs, never 4
	SetTraceCacheBudget(budget)

	traces := []string{
		"lbm-1274", "milc-127", "bwaves-1963", "gcc-13",
		"soplex-66", "hmmer-7", "sphinx3-417", "zeusmp-300",
	}

	// auditLocked recomputes the footprint from the entries map and
	// cross-checks the incremental counter — the double-evict detector.
	audit := func() (bytes int64, entries int) {
		traceCache.mu.Lock()
		defer traceCache.mu.Unlock()
		var sum int64
		for _, e := range traceCache.entries {
			if e.done {
				sum += e.bytes
				entries++
			}
		}
		if sum != traceCache.bytes {
			t.Errorf("bytes counter %d != resident sum %d (double-evict or lost entry)", traceCache.bytes, sum)
		}
		if traceCache.bytes < 0 {
			t.Errorf("bytes counter negative: %d", traceCache.bytes)
		}
		return traceCache.bytes, entries
	}

	stop := make(chan struct{})
	var monitor sync.WaitGroup
	monitor.Add(1)
	go func() {
		defer monitor.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if bytes, _ := audit(); bytes > budget {
				t.Errorf("resident bytes %d exceed budget %d", bytes, budget)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				name := traces[(g+i)%len(traces)]
				recs, err := MaterializeRecords(name, n)
				if err != nil {
					t.Error(err)
					return
				}
				if recs.Len() != n {
					t.Errorf("%s: %d records, want %d", name, recs.Len(), n)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	monitor.Wait()

	bytes, entries := audit()
	if bytes > budget {
		t.Fatalf("final footprint %d exceeds budget %d", bytes, budget)
	}
	st := TraceCacheStats()
	if st.Evictions == 0 {
		t.Fatal("8 distinct slabs through a 3.5-slab budget produced no evictions")
	}
	// Conservation: every miss added a slab, every eviction removed one,
	// nothing else did (no failures, no invalidations in this test).
	if st.Misses-st.Evictions != uint64(entries) {
		t.Fatalf("misses %d - evictions %d != resident %d: eviction accounting drifted",
			st.Misses, st.Evictions, entries)
	}
	if st.Entries != entries {
		t.Fatalf("stats entries %d != audited %d", st.Entries, entries)
	}
}

// TestTraceCacheBudgetBoundarySingleflight pins the in-flight half of the
// eviction contract: an entry still generating contributes zero bytes and
// is never an eviction victim, so concurrent first requests for the same
// trace still coalesce onto one generation even while the cache is
// evicting at the boundary.
func TestTraceCacheBudgetBoundarySingleflight(t *testing.T) {
	ResetTraceCache()
	t.Cleanup(ResetTraceCache)

	const n = 2_000
	SetTraceCacheBudget(int64(n) * trace.ColumnarRecordBytes) // exactly one slab fits

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := MaterializeRecords("lbm-1274", n); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	st := TraceCacheStats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (single-flight collapsed 8 concurrent requests)", st.Misses)
	}
	if st.Hits != 7 {
		t.Fatalf("hits = %d, want 7", st.Hits)
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d: the just-materialized slab must be keep-exempt", st.Evictions)
	}
	if st.Bytes > int64(n)*trace.ColumnarRecordBytes {
		t.Fatalf("bytes = %d exceed the one-slab budget", st.Bytes)
	}
}

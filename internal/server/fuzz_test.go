package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
)

// FuzzAnalyticsQuery sends arbitrary raw queries to both analytics
// endpoints — the trust boundary where untrusted URLs become compiled
// grids. Every answer is 200 or 400, never a 5xx or a panic, and the same
// URL twice answers byte-identical bodies and ETags: a document served
// from the per-URL cache is the one a cold compile builds.
func FuzzAnalyticsQuery(f *testing.F) {
	for _, q := range []string{
		"",
		"traces=lbm-1274&prefetchers=Gaze",
		"traces=milc-127,lbm-1274&prefetchers=IP-stride,Gaze",
		"prefetchers=Gaze&traces=lbm-1274,lbm-1274,",
		"suite=spec06&prefetchers=Gaze,PMP",
		"traces=lbm-1274&prefetchers=Gaze&param=llc_mb_per_core&values=1,2,1",
		"traces=lbm-1274&param=dram_mtps&values=NaN",
		"traces=lbm-1274&prefetchers=Gaze-PHT384,vGaze-3KB",
		"traces=lbm-1274&bogus=1",
		"traces=%zz;&&=",
	} {
		f.Add(q)
	}
	h := New(engine.New(engine.Options{Scale: tiny})).Handler()
	f.Fuzz(func(t *testing.T, raw string) {
		for _, path := range []string{"/analytics/matrix", "/analytics/speedup"} {
			var first *httptest.ResponseRecorder
			for i := 0; i < 2; i++ {
				req := httptest.NewRequest(http.MethodGet, path, nil)
				req.URL.RawQuery = raw
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
					t.Fatalf("%s?%s: status %d: %s", path, raw, rec.Code, rec.Body)
				}
				if first == nil {
					first = rec
					continue
				}
				if rec.Code != first.Code || rec.Header().Get("ETag") != first.Header().Get("ETag") ||
					!bytes.Equal(rec.Body.Bytes(), first.Body.Bytes()) {
					t.Fatalf("%s?%s: second answer differs: %d %s %q, first %d %s %q", path, raw,
						rec.Code, rec.Header().Get("ETag"), rec.Body, first.Code, first.Header().Get("ETag"), first.Body)
				}
			}
		}
	})
}

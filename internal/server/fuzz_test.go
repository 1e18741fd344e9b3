package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/engine"
	"repro/internal/jobs"
)

// FuzzAnalyticsQuery sends arbitrary raw queries to the three analytics
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
		"trace=lbm-1274&a=1&b=2",
	} {
		f.Add(q)
	}
	h := New(engine.New(engine.Options{Scale: tiny})).Handler()
	f.Fuzz(func(t *testing.T, raw string) {
		for _, path := range []string{"/analytics/matrix", "/analytics/speedup", "/analytics/timeline"} {
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

// FuzzCompileRequest feeds arbitrary (type, body) pairs to the compiler
// behind POST /jobs — the trust boundary where untrusted JSON becomes
// engine jobs, with the validation and work caps /simulate and /sweep
// share. It compiles only and never simulates. Every answer is an error
// or a plan whose jobs all validate, and whose fingerprint, compiled
// again as the body, gives the same fingerprint and the same job content
// addresses: the fingerprint is a faithful spelling of the request.
func FuzzCompileRequest(f *testing.F) {
	for _, seed := range [][2]string{
		{"simulate", `{"trace":"lbm-1274","prefetcher":"Gaze"}`},
		{"simulate", `{"traces":["lbm-1274","milc-127"],"prefetcher":"PMP","l2":"IP-stride"}`},
		{"simulate", `{"trace":"lbm-1274","prefetcher":"Gaze","cores":2,"overrides":{"llc_mb_per_core":1,"pq_capacity":16}}`},
		{"simulate", `{"trace":"lbm-1274","prefetcher":"Gaze","bogus":1}`},
		{"sweep", `{"traces":["lbm-1274","lbm-1274"],"prefetchers":["Gaze","PMP","Gaze"]}`},
		{"sweep", `{"suite":"spec06","traces":["lbm-1274"],"prefetchers":["Gaze"],"axis":{"param":"dram_mtps","values":[800,1600,800]}}`},
		{"sweep", `{"traces":["lbm-1274"],"prefetchers":["vGaze-3KB","Gaze-PHT384"],"overrides":{"warmup_instructions":1}}`},
		{"sweep", `[`},
		{"nope", `{}`},
	} {
		f.Add(seed[0], seed[1])
	}
	eng := engine.New(engine.Options{Scale: tiny})
	scale := eng.Scale()
	compile := Compiler(eng)
	f.Fuzz(func(t *testing.T, typ, body string) {
		plan, err := compile(jobs.Spec{Type: typ, Request: json.RawMessage(body)})
		if err != nil {
			return
		}
		for _, j := range plan.Jobs {
			if err := j.Validate(); err != nil {
				t.Fatalf("%s %s: compiled job %+v does not validate: %v", typ, body, j, err)
			}
		}
		again, err := compile(jobs.Spec{Type: typ, Request: json.RawMessage(plan.Fingerprint)})
		if err != nil {
			t.Fatalf("%s %s: fingerprint %s does not recompile: %v", typ, body, plan.Fingerprint, err)
		}
		if again.Fingerprint != plan.Fingerprint {
			t.Fatalf("%s %s: fingerprint %s recompiles to %s", typ, body, plan.Fingerprint, again.Fingerprint)
		}
		if len(again.Jobs) != len(plan.Jobs) {
			t.Fatalf("%s %s: %d jobs recompile to %d", typ, body, len(plan.Jobs), len(again.Jobs))
		}
		for i, j := range plan.Jobs {
			if a, b := j.ContentAddress(scale), again.Jobs[i].ContentAddress(scale); a != b {
				t.Fatalf("%s %s: job %d address %s recompiles to %s", typ, body, i, a, b)
			}
		}
	})
}

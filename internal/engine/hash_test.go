package engine

import "testing"

// TestContentAddressGolden pins the canonical encoding and SHA-256
// content address of representative jobs. The persisted store files
// records under these addresses: an accidental change to the canonical
// encoding (field order, normalization rules, JSON tags) would silently
// orphan every existing store entry, so it must fail here instead. A
// deliberate encoding change must bump canonicalVersion and
// StoreSchemaVersion together and regenerate these values.
func TestContentAddressGolden(t *testing.T) {
	scale := Scale{TraceLen: 1000, Warmup: 100, Sim: 200}
	cases := []struct {
		name      string
		job       Job
		canonical string
		address   string
	}{
		{
			name:      "single-core",
			job:       Job{Traces: []string{"lbm-1274"}, L1: []string{"Gaze"}},
			canonical: `{"v":2,"trace_len":1000,"warmup":100,"sim":200,"traces":["lbm-1274"],"l1":["Gaze"]}`,
			address:   "b2bfbcbfb3e6193de8453d3410f6420aa9a3bc5445cc751e59ee1e66d413cf3d",
		},
		{
			name:      "no-prefetch baseline",
			job:       Job{Traces: []string{"lbm-1274"}, L1: []string{"none"}},
			canonical: `{"v":2,"trace_len":1000,"warmup":100,"sim":200,"traces":["lbm-1274"]}`,
			address:   "e5bc6eb4dac0d1e006141e7b16d017e30b060f384c06fa473b741104e4f47986",
		},
		{
			name: "multi-core with L2 broadcast",
			job: Job{
				Traces: []string{"lbm-1274", "mcf_s-1554"},
				L1:     []string{"Gaze", "PMP"},
				L2:     []string{"BOP"},
			},
			canonical: `{"v":2,"trace_len":1000,"warmup":100,"sim":200,"traces":["lbm-1274","mcf_s-1554"],"l1":["Gaze","PMP"],"l2":["BOP","BOP"]}`,
			address:   "d881efbc0fc43105a0cddcadf7c591febdba2afb48916a3e1998b70083e9976d",
		},
		{
			name: "one override",
			job: Job{
				Traces:    []string{"lbm-1274"},
				L1:        []string{"Gaze"},
				Overrides: Overrides{DRAMMTPS: 800},
			},
			canonical: `{"v":2,"trace_len":1000,"warmup":100,"sim":200,"traces":["lbm-1274"],"l1":["Gaze"],"overrides":{"dram_mtps":800}}`,
			address:   "0a908f2d77c8d7846d5c2aaf5a8a3349ddaf1953cf1c3ec06438e2c4346267d1",
		},
		{
			// Budget overrides fold into the warmup/sim fields they
			// replace, so the scale's unused budgets never reach the hash.
			name: "every override",
			job: Job{
				Traces: []string{"lbm-1274"},
				L1:     []string{"Gaze"},
				Overrides: Overrides{
					LLCMBPerCore: 0.5, L2KB: 256, PQCapacity: 16, PQDrainRate: 0.5,
					WarmupInstructions: 50, SimInstructions: 100,
				},
			},
			canonical: `{"v":2,"trace_len":1000,"warmup":50,"sim":100,"traces":["lbm-1274"],"l1":["Gaze"],"overrides":{"llc_mb_per_core":0.5,"l2_kb":256,"pq_capacity":16,"pq_drain_rate":0.5}}`,
			address:   "79889db4e22b517ef2c15b7aa26d30594ba9127a42065b7a86373f6d8ee469b7",
		},
		{
			// Ingested traces fold their record-stream digest into the
			// encoding (trace_digests), so result-store keys pin trace
			// CONTENT, not just a registry name. The field is omitted for
			// all-catalogue jobs — the cases above must never grow it.
			name: "ingested trace",
			job: Job{
				Traces: []string{"ingested:8a2b9f6d1f9c7a1f0d3e5b7c9a1d2e3f4a5b6c7d8e9f0a1b2c3d4e5f6a7b8c9d"},
				L1:     []string{"Gaze"},
			},
			canonical: `{"v":2,"trace_len":1000,"warmup":100,"sim":200,"traces":["ingested:8a2b9f6d1f9c7a1f0d3e5b7c9a1d2e3f4a5b6c7d8e9f0a1b2c3d4e5f6a7b8c9d"],"trace_digests":["8a2b9f6d1f9c7a1f0d3e5b7c9a1d2e3f4a5b6c7d8e9f0a1b2c3d4e5f6a7b8c9d"],"l1":["Gaze"]}`,
			address:   "a8d3b7fe0a10bff2e2c4ca73eeb07fb29eb7ea4cf565187322d480d06cf5accc",
		},
		{
			// Mixed cores: catalogue traces contribute "" digests, keeping
			// per-core alignment.
			name: "ingested and catalogue traces mixed",
			job: Job{
				Traces: []string{"ingested:8a2b9f6d1f9c7a1f0d3e5b7c9a1d2e3f4a5b6c7d8e9f0a1b2c3d4e5f6a7b8c9d", "lbm-1274"},
				L1:     []string{"Gaze", "PMP"},
			},
			canonical: `{"v":2,"trace_len":1000,"warmup":100,"sim":200,"traces":["ingested:8a2b9f6d1f9c7a1f0d3e5b7c9a1d2e3f4a5b6c7d8e9f0a1b2c3d4e5f6a7b8c9d","lbm-1274"],"trace_digests":["8a2b9f6d1f9c7a1f0d3e5b7c9a1d2e3f4a5b6c7d8e9f0a1b2c3d4e5f6a7b8c9d",""],"l1":["Gaze","PMP"]}`,
			address:   "92a09e2426cae101f775559d499d1746e29bedc436b073d492ca4030f3962726",
		},
	}
	for _, c := range cases {
		if got := c.job.CanonicalJSON(scale); got != c.canonical {
			t.Errorf("%s: canonical encoding changed\n got %s\nwant %s", c.name, got, c.canonical)
		}
		if got := c.job.ContentAddress(scale); got != c.address {
			t.Errorf("%s: content address changed\n got %s\nwant %s", c.name, got, c.address)
		}
	}
}

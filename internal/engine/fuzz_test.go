package engine_test

// Fuzz targets for the two decoders that read worker uploads in cluster
// mode (PUT /cluster/results/{addr} and /cluster/telemetry/{addr}). The
// contract is the untrusted-input one: any (address, bytes) pair either
// errors or yields a document that re-exports under a key hashing to the
// claimed address, and that re-export is a fixed point of import/export.
// Neither decoder may panic.

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/prefetch"
	"repro/internal/sim"
)

// fuzzKey is a canonical job key the seed documents are filed under.
func fuzzKey() string {
	job := engine.Job{Traces: []string{"lbm-1274"}, L1: []string{"Gaze"}}
	return job.CanonicalJSON(engine.Scale{TraceLen: 1000, Warmup: 100, Sim: 200})
}

func FuzzImportResult(f *testing.F) {
	key := fuzzKey()
	addr := engine.AddressOfKey(key)
	res := sim.Result{
		Cores: []sim.CoreResult{{
			IPC: 0.357, Instructions: 200,
			L1D:                cache.Stats{DemandAccesses: 90, DemandHits: 70, DemandMisses: 20, UsefulPrefetches: 12},
			PrefetchesIssuedL1: 15, PQDropsFull: 1,
		}},
		LLC:          cache.Stats{DemandAccesses: 8, DemandMisses: 5},
		DRAMRequests: 9, DRAMRowHitRate: 0.5,
	}
	valid, err := engine.ExportResult(key, res)
	if err != nil {
		f.Fatal(err)
	}
	empty, err := engine.ExportResult(key, sim.Result{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(addr, valid)
	f.Add(addr, empty)
	f.Add(strings.ToUpper(addr), valid)                                                  // not a lower-hex address
	f.Add(engine.AddressOfKey("other"), valid)                                           // key hashes elsewhere
	f.Add(addr, bytes.Replace(valid, []byte(`"version": 2`), []byte(`"version": 1`), 1)) // foreign schema
	f.Add(addr, valid[:len(valid)/2])                                                    // torn upload
	f.Add(addr, []byte(`{"version":2,"key":"","result":{"Cores":null}}`))
	f.Add(addr, []byte(`null`))

	f.Fuzz(func(t *testing.T, addr string, data []byte) {
		key, res, err := engine.ImportResult(addr, data)
		if err != nil {
			return
		}
		if got := engine.AddressOfKey(key); got != addr {
			t.Fatalf("accepted document's key hashes to %s, uploaded under %s", got, addr)
		}
		doc, err := engine.ExportResult(key, res)
		if err != nil {
			t.Fatalf("accepted document does not re-export: %v", err)
		}
		key2, res2, err := engine.ImportResult(addr, doc)
		if err != nil {
			t.Fatalf("re-exported document rejected: %v", err)
		}
		doc2, err := engine.ExportResult(key2, res2)
		if err != nil || key2 != key || !bytes.Equal(doc2, doc) {
			t.Fatalf("re-export is not a fixed point (err %v)", err)
		}
	})
}

func FuzzImportTelemetry(f *testing.F) {
	key := fuzzKey()
	addr := engine.AddressOfKey(key)
	tel := &sim.Telemetry{Interval: 100, Cores: []sim.CoreTelemetry{{
		Prefetcher: "Gaze",
		Samples: []sim.IntervalSample{
			{Start: 0, End: 100, IPC: 0.4, L1MPKI: 12.5, PrefetchesIssued: 3, Accuracy: 0.9},
			{Start: 100, End: 200, IPC: 0.3, LLCMPKI: 4, PQOccupancy: 2, DRAMRowHitRate: 0.25},
		},
		Introspection: &prefetch.Introspection{PatternEntries: 5, PatternCapacity: 64, StreamHits: 7},
	}}}
	valid, err := engine.ExportTelemetry(key, tel)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(addr, valid)
	f.Add(strings.ToUpper(addr), valid)                                      // not a lower-hex address
	f.Add(engine.AddressOfKey("other"), valid)                               // key hashes elsewhere
	f.Add(addr, valid[:len(valid)/2])                                        // torn upload
	f.Add(addr, []byte(`{"version":1,"key":"","telemetry":null}`))           // no payload
	f.Add(addr, []byte(`{"version":1,"key":"","telemetry":{"cores":null}}`)) // empty payload
	f.Add(addr, []byte(`[]`))

	f.Fuzz(func(t *testing.T, addr string, data []byte) {
		key, tel, err := engine.ImportTelemetry(addr, data)
		if err != nil {
			return
		}
		if got := engine.AddressOfKey(key); got != addr {
			t.Fatalf("accepted document's key hashes to %s, uploaded under %s", got, addr)
		}
		doc, err := engine.ExportTelemetry(key, tel)
		if err != nil {
			t.Fatalf("accepted document does not re-export: %v", err)
		}
		key2, tel2, err := engine.ImportTelemetry(addr, doc)
		if err != nil {
			t.Fatalf("re-exported document rejected: %v", err)
		}
		doc2, err := engine.ExportTelemetry(key2, tel2)
		if err != nil || key2 != key || !bytes.Equal(doc2, doc) {
			t.Fatalf("re-export is not a fixed point (err %v)", err)
		}
	})
}

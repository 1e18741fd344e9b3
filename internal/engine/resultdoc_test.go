package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/prefetchers"
	"repro/internal/sim"
)

// TestResultDocumentRoundTrip pins the cluster wire contract: ExportResult
// produces the exact bytes Store.Put persists, ImportResult verifies the
// document against its address, and Adopt lands the result in both the
// memo and the store.
func TestResultDocumentRoundTrip(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Scale: tiny, Store: store})
	job := tinyJob("IP-stride")
	res := e.Run(job)

	key := job.CanonicalJSON(tiny)
	addr := AddressOfKey(key)
	if addr != job.ContentAddress(tiny) {
		t.Errorf("AddressOfKey = %s, ContentAddress = %s", addr, job.ContentAddress(tiny))
	}

	doc, err := ExportResult(key, res)
	if err != nil {
		t.Fatal(err)
	}
	gotKey, gotRes, err := ImportResult(addr, doc)
	if err != nil {
		t.Fatal(err)
	}
	if gotKey != key || !reflect.DeepEqual(gotRes, res) {
		t.Error("ImportResult round-trip changed the record")
	}

	// A fresh engine adopts the document: Lookup and a completion probe
	// see it without simulating, and the store write is the same bytes
	// Put would emit.
	adoptStore, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e2 := New(Options{Scale: tiny, Store: adoptStore})
	if _, ok := e2.Lookup(key); ok {
		t.Fatal("fresh engine already has the result")
	}
	probe := e2.CompletionProbe([]string{key}, []string{addr})
	if len(probe.Completed()) != 0 {
		t.Fatal("fresh engine claims to have the result")
	}
	e2.Adopt(key, res)
	got, ok := e2.Lookup(key)
	if !ok || !reflect.DeepEqual(got, res) {
		t.Error("Lookup after Adopt did not return the adopted result")
	}
	if len(probe.Completed()) != 1 {
		t.Error("probe after Adopt does not count the result")
	}
	if c := e2.Counters(); c.Simulated != 0 {
		t.Errorf("Adopt simulated: %+v", c)
	}

	// A third engine sharing the store probes and Lookups through disk
	// alone.
	e3 := New(Options{Scale: tiny, Store: adoptStore})
	if len(e3.CompletionProbe([]string{key}, []string{addr}).Completed()) != 1 {
		t.Error("store-only probe after Adopt does not count the result")
	}
	if got, ok := e3.Lookup(key); !ok || !reflect.DeepEqual(got, res) {
		t.Error("Lookup through the store missed the adopted result")
	}
}

// TestImportResultRejects: the three verification failures that make
// accepting uploads from untrusted workers safe.
func TestImportResultRejects(t *testing.T) {
	job := tinyJob("IP-stride")
	key := job.CanonicalJSON(tiny)
	doc, err := ExportResult(key, sim.Result{})
	if err != nil {
		t.Fatal(err)
	}
	addr := AddressOfKey(key)

	if _, _, err := ImportResult("not-an-address", doc); err == nil {
		t.Error("malformed address accepted")
	}
	if _, _, err := ImportResult(addr, []byte("{")); err == nil {
		t.Error("malformed document accepted")
	}
	other := AddressOfKey(key + "x")
	if _, _, err := ImportResult(other, doc); err == nil {
		t.Error("document accepted under a mismatched address")
	}
	stale := strings.Replace(string(doc), "\"version\": 2", "\"version\": 1", 1)
	if _, _, err := ImportResult(addr, []byte(stale)); err == nil {
		t.Error("stale-schema document accepted")
	}
}

// TestEngineAccessors: the trivial read-only surface the server layers on.
func TestEngineAccessors(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Scale: tiny, Store: store})
	if e.Scale() != tiny {
		t.Errorf("Scale() = %+v", e.Scale())
	}
	if e.Store() != store {
		t.Error("Store() did not return the configured store")
	}
	if store.Dir() == "" {
		t.Error("Dir() is empty")
	}

	res := e.Run(tinyJob("IP-stride"))
	base := e.Run(tinyJob("IP-stride").Baseline())
	if s := Speedup(res, base); s <= 0 {
		t.Errorf("Speedup = %v, want > 0", s)
	}
	if s := Speedup(res, sim.Result{}); s != 0 {
		t.Errorf("Speedup against a missing baseline = %v, want 0", s)
	}

	// Smoke the stderr progress renderer, including the final newline.
	StderrProgress(Progress{Done: 1, Total: 2})
	StderrProgress(Progress{Done: 2, Total: 2})
}

// The fast result-record parser against encoding/json, as
// telemetrydoc_test.go holds the telemetry parser: every record the engine
// persists takes the fast path and decodes to what json.Unmarshal
// produces, allocations do not grow with the field count, and any other
// input decodes, fails or misses exactly as the reference does.

// referenceResult decodes a record the way Store.Get and ImportResult did
// before the fast parser: json.Unmarshal, then the version check.
func referenceResult(data []byte) (record, error) {
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return record{}, err
	}
	if rec.Version != StoreSchemaVersion {
		return record{}, errors.New("schema version")
	}
	return rec, nil
}

// checkResultFastPath requires doc to take the fast parser and decode
// equal to json.Unmarshal.
func checkResultFastPath(t *testing.T, name string, doc []byte) {
	t.Helper()
	got, ok := parseRecord(doc)
	if !ok {
		t.Errorf("%s: canonical record (%d bytes) fell back to encoding/json", name, len(doc))
		return
	}
	var want record
	if err := json.Unmarshal(doc, &want); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: fast parse differs from encoding/json:\n got %+v\nwant %+v", name, got, want)
	}
}

// TestCanonicalResultTakesFastPath simulates none and every evaluated
// prefetcher at a tiny scale, plus a 2-core job and a job with an L2
// prefetcher, and requires every record the engine persisted to take the
// fast path.
func TestCanonicalResultTakesFastPath(t *testing.T) {
	var jobs []Job
	for _, pf := range append([]string{"none"}, prefetchers.EvaluatedNames()...) {
		jobs = append(jobs, tinyJob(pf))
	}
	jobs = append(jobs,
		Job{Traces: []string{"lbm-1274", "mcf_s-1554"}, L1: []string{"Gaze"}},
		Job{Traces: []string{"lbm-1274"}, L1: []string{"IP-stride"}, L2: []string{"Bingo"}},
	)
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	New(Options{Scale: tiny, Store: store}).RunAll(jobs)
	for _, j := range jobs {
		doc, err := os.ReadFile(store.path(j.CanonicalJSON(tiny)))
		if err != nil {
			t.Fatalf("%s: %v", j, err)
		}
		checkResultFastPath(t, j.String(), doc)
	}
}

// benchResult builds an n-core result with full-precision IPCs and
// counters of a Quick-scale run, the shape of a Fig 14 n-core cell.
func benchResult(n int) sim.Result {
	x := uint64(0x9e3779b97f4a7c15)
	next := func(max uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % max
	}
	stats := func() cache.Stats {
		acc := 20_000 + next(40_000)
		hits := next(acc)
		useful := next(acc - hits + 1)
		return cache.Stats{
			DemandAccesses: acc, DemandHits: hits, DemandMisses: acc - hits,
			PrefetchFills: useful + next(5_000), UsefulPrefetches: useful, UselessPrefetches: next(3_000),
			LatePrefetches: next(useful + 1), CoveredMisses: next(useful + 1),
		}
	}
	res := sim.Result{Cores: make([]sim.CoreResult, n)}
	for i := range res.Cores {
		res.Cores[i] = sim.CoreResult{
			IPC: 0.2 + float64(next(1<<53))/(1<<53), Instructions: 150_000 + next(8),
			L1D: stats(), L2C: stats(),
			PrefetchesIssuedL1: next(30_000), PrefetchesIssuedL2: next(10_000), PrefetchesRedundant: next(20_000),
			PQDropsFull: next(500), PQDropsDup: next(9_000),
		}
	}
	res.LLC = stats()
	res.DRAMRequests = next(100_000)
	res.DRAMRowHitRate = float64(next(1<<53)) / (1 << 53)
	return res
}

// benchResultDoc exports benchResult(n) under the key of an n-core Gaze
// job at Quick scale.
func benchResultDoc(tb testing.TB, n int) (addr string, doc []byte) {
	traces := make([]string, n)
	for i := range traces {
		traces[i] = "fotonik3d_s-8225"
	}
	key := Job{Traces: traces, L1: []string{"Gaze"}}.CanonicalJSON(Quick)
	doc, err := ExportResult(key, benchResult(n))
	if err != nil {
		tb.Fatal(err)
	}
	return hashKey(key), doc
}

// BenchmarkDecodeResult verifies and decodes a result document as every
// store read and upload does (ImportResult, address check included): a
// 1-core cell, the sweep's shape, and an 8-core cell, Fig 14's largest.
func BenchmarkDecodeResult(b *testing.B) {
	for _, n := range []int{1, 8} {
		b.Run(fmt.Sprintf("cores=%d", n), func(b *testing.B) {
			addr, doc := benchResultDoc(b, n)
			b.SetBytes(int64(len(doc)))
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := ImportResult(addr, doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecodeResultAllocsFixed pins the fast path's allocations: the key
// and the core slice, whatever the core count, none per field.
func TestDecodeResultAllocsFixed(t *testing.T) {
	for _, n := range []int{1, 8} {
		_, doc := benchResultDoc(t, n)
		checkResultFastPath(t, fmt.Sprintf("%d cores", n), doc)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := decodeRecord(doc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("decoding a %d-core record allocates %v times, want at most 2", n, allocs)
		}
	}
}

// resultBase is a compact record inside the fast parser's subset; cores
// is its Cores value, for edits that replace it whole.
func resultBase(t testing.TB, key string) (base, cores string) {
	quoted, err := json.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	cores = `[{"IPC":0.357,"Instructions":200,` +
		`"L1D":{"DemandAccesses":90,"DemandHits":70,"DemandMisses":20,"UsefulPrefetches":12},` +
		`"L2C":{"DemandMisses":3,"CoveredMisses":1},"PrefetchesIssuedL1":15,"PQDropsFull":1}]`
	base = fmt.Sprintf(`{"version":%d,"key":%s,"result":{"Cores":%s,`+
		`"LLC":{"DemandAccesses":8,"DemandMisses":5},"DRAMRequests":9,"DRAMRowHitRate":0.5}}`,
		StoreSchemaVersion, quoted, cores)
	return base, cores
}

// TestResultFallback: records that encoding/json reads but the subset
// leaves out take the fallback, and ImportResult and Store.Get answer
// exactly what the encoding/json reference does. A record the reference
// cannot read, or whose key is another job's, is deleted by Store.Get and
// reported as a miss.
func TestResultFallback(t *testing.T) {
	key := tinyJob("Gaze").CanonicalJSON(tiny)
	base, cores := resultBase(t, key)
	checkResultFastPath(t, "base", []byte(base))
	edit := func(old, new string) string {
		if !strings.Contains(base, old) {
			t.Fatalf("edit %q does not apply", old)
		}
		return strings.Replace(base, old, new, 1)
	}
	otherKey, _ := json.Marshal(tinyJob("PMP").CanonicalJSON(tiny))
	quotedKey, _ := json.Marshal(key)
	for name, doc := range map[string]string{
		"case-variant key": edit(`"IPC":`, `"ipc":`),
		"duplicate key":    edit(`"DRAMRequests":9`, `"DRAMRequests":4,"DRAMRequests":9`),
		"null cores":       edit(`"Cores":`+cores, `"Cores":null`),
		"unknown field":    edit(`"DRAMRequests":9`, `"DRAMRequests":9,"Extra":{"a":[1,null]}`),
		"exponent in uint": edit(`"Instructions":200`, `"Instructions":1e2`),
		"escaped key":      edit(`\"traces\"`, `\"tr\u0061ces\"`),
		"other version":    edit(fmt.Sprintf(`"version":%d`, StoreSchemaVersion), `"version":1`),
		"other key":        edit(string(quotedKey), string(otherKey)),
	} {
		if name != "other version" && name != "other key" {
			if _, ok := parseRecord([]byte(doc)); ok {
				t.Errorf("%s: the fast parser accepted the record", name)
			}
		}
		ref, refErr := referenceResult([]byte(doc))
		want := refErr == nil && ref.Key == key

		_, res, err := ImportResult(hashKey(key), []byte(doc))
		if (err == nil) != want || (want && !reflect.DeepEqual(res, ref.Result)) {
			t.Errorf("%s: ImportResult = %+v, %v; reference %+v, %v", name, res, err, ref.Result, refErr)
		}

		store, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Put(key, sim.Result{}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(store.path(key), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		got, hit := store.Get(key)
		switch {
		case hit != want:
			t.Errorf("%s: Store.Get hit = %v, want %v (reference error %v)", name, hit, want, refErr)
		case hit && !reflect.DeepEqual(got, ref.Result):
			t.Errorf("%s: Store.Get = %+v, reference %+v", name, got, ref.Result)
		case !hit:
			if _, err := os.Stat(store.path(key)); !os.IsNotExist(err) {
				t.Errorf("%s: Store.Get missed but left the record (stat error %v)", name, err)
			}
			if n := store.Len(); n != 0 {
				t.Errorf("%s: Len = %d after the record was deleted, want 0", name, n)
			}
		}
	}
}

// fuzzResultSeeds returns exported records plus edge cases around the
// fast parser's subset: each either stays inside it or must fall back to
// encoding/json and decode exactly as it does there.
func fuzzResultSeeds(t testing.TB) [][]byte {
	key := tinyJob("Gaze").CanonicalJSON(tiny)
	var seeds [][]byte
	for _, res := range []sim.Result{benchResult(1), benchResult(2), sampleResult(), {}, {Cores: []sim.CoreResult{}}} {
		doc, err := ExportResult(key, res)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, doc)
	}
	base, cores := resultBase(t, key)
	seeds = append(seeds, []byte(base))
	edit := func(old, new string) {
		if !strings.Contains(base, old) {
			t.Fatalf("seed edit %q does not apply", old)
		}
		seeds = append(seeds, []byte(strings.Replace(base, old, new, 1)))
	}
	v := fmt.Sprintf(`"version":%d`, StoreSchemaVersion)
	// Reordered, duplicate, case-variant and unknown keys.
	seeds = append(seeds, []byte(fmt.Sprintf(`{"result":{"DRAMRequests":1,"Cores":[]},"key":"k",%s}`, v)))
	edit(v+`,`, v+`,`+v+`,`)
	edit(`"IPC":0.357,`, `"IPC":0.357,"IPC":1,`)
	edit(`"DemandMisses":20`, `"DemandMisses":20,"DemandMisses":21`)
	edit(`"LLC":{`, `"LLC":{},"LLC":{`)
	edit(v, `"Version":2`)
	edit(`"IPC":`, `"ipc":`)
	edit(`"Cores":`, `"cores":`)
	edit(`"DemandHits":70`, `"demandhits":70`)
	edit(`"DRAMRequests":9`, `"DRAMRequests":9,"Extra":[1,{"a":null}]`)
	// null where the schema has a value.
	edit(`"Cores":`+cores, `"Cores":null`)
	edit(`"L2C":{"DemandMisses":3,"CoveredMisses":1}`, `"L2C":null`)
	edit(v, `"version":null`)
	seeds = append(seeds, []byte(`null`), []byte(`{"version":2,"key":"","result":null}`), []byte(`[]`))
	// Escaped, non-ASCII and invalid-UTF-8 key strings.
	edit(`\"traces\"`, `\"tr\u0061ces\"`)
	edit(`\"traces\"`, `\"träces\"`)
	edit(`\"traces\"`, "\\\"tr\xffaces\\\"")
	edit(`\"traces\"`, `\"tr\/aces\\\"`)
	edit(`"key":"`, `"key":"\\`)
	edit(`"DRAMRowHitRate"`, `"DRAMRow\u0048itRate"`)
	// Exponent, negative and -0 numbers, in float and integer fields.
	edit(`"IPC":0.357`, `"IPC":357E-3`)
	edit(`"IPC":0.357`, `"IPC":-0`)
	edit(`"IPC":0.357`, `"IPC":1e400`)
	edit(`"IPC":0.357`, `"IPC":0357`)
	edit(`"Instructions":200`, `"Instructions":1e2`)
	edit(`"Instructions":200`, `"Instructions":-0`)
	edit(`"Instructions":200`, `"Instructions":200.0`)
	edit(`"Instructions":200`, `"Instructions":18446744073709551616`)
	edit(v, `"version":2.0`)
	edit(v, `"version":-0`)
	edit(`"Cores":`+cores, `"Cores":[{},{"L1D":{}},`+cores[1:])
	edit(`"Cores":`+cores, `"Cores":[]`)
	// Trailing bytes and torn documents.
	seeds = append(seeds, []byte(base+" \n\t"), []byte(base+"x"), []byte(base+"{}"),
		[]byte(base[:len(base)/2]), []byte(base[:len(base)-1]), []byte(" "+base))
	return seeds
}

// FuzzDecodeResult holds the fast parser to encoding/json: when it
// accepts an input, json.Unmarshal succeeds with an equal value, and
// decodeRecord and ImportResult succeed or fail exactly as the reference
// does, with equal results.
func FuzzDecodeResult(f *testing.F) {
	for _, seed := range fuzzResultSeeds(f) {
		f.Add(seed)
	}
	fallbackAddr := hashKey("fuzz")
	f.Fuzz(func(t *testing.T, data []byte) {
		if fast, ok := parseRecord(data); ok {
			var want record
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("fast parser accepted what encoding/json rejects: %v", err)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast parse differs from encoding/json:\n got %+v\nwant %+v", fast, want)
			}
		}
		ref, refErr := referenceResult(data)

		rec, err := decodeRecord(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decodeRecord error %v, reference error %v", err, refErr)
		}
		if err == nil && !reflect.DeepEqual(rec, ref) {
			t.Fatalf("decodeRecord differs from the reference:\n got %+v\nwant %+v", rec, ref)
		}

		addr := fallbackAddr
		if refErr == nil {
			addr = hashKey(ref.Key)
		}
		key, res, err := ImportResult(addr, data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ImportResult error %v, reference error %v", err, refErr)
		}
		if err == nil && (key != ref.Key || !reflect.DeepEqual(res, ref.Result)) {
			t.Fatalf("ImportResult differs from the reference: key %q vs %q", key, ref.Key)
		}
	})
}

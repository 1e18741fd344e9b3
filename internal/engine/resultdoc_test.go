package engine

import (
	"reflect"
	"strings"
	"testing"

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

package traceset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/trace"
	"repro/internal/workload"
)

func testRecords(t *testing.T, n int) []trace.Record {
	t.Helper()
	recs, err := workload.Generate("lbm-1274", n)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

func encode(t *testing.T, f trace.Format, recs []trace.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, f, recs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestIngestRoundTripAllFormats is the generate → export → ingest loop:
// the same logical trace encoded in every supported format must ingest to
// the same registry address with identical records — the dedup property
// the whole registry keys on.
func TestIngestRoundTripAllFormats(t *testing.T) {
	reg := openTestRegistry(t)
	recs := testRecords(t, 2_000)
	want := DigestRecords(recs)

	created := 0
	for _, f := range trace.Formats() {
		m, fresh, err := reg.Ingest(bytes.NewReader(encode(t, f, recs)))
		if err != nil {
			t.Fatalf("%s: ingest: %v", f, err)
		}
		if m.Address != want {
			t.Fatalf("%s: address %s, want %s", f, m.Address, want)
		}
		if fresh {
			created++
			if m.SourceFormat != f {
				t.Errorf("created entry records source format %q, want %q", m.SourceFormat, f)
			}
		}
		if m.Records != len(recs) {
			t.Errorf("%s: manifest records = %d, want %d", f, m.Records, len(recs))
		}
	}
	if created != 1 {
		t.Errorf("created %d entries from 4 formats of one trace, want 1", created)
	}
	if reg.Len() != 1 {
		t.Errorf("registry holds %d entries, want 1", reg.Len())
	}

	got, err := reg.Records(want, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read back %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

func TestIngestManifestAndFootprint(t *testing.T) {
	reg := openTestRegistry(t)
	recs := testRecords(t, 3_000)
	m, created, err := reg.Ingest(bytes.NewReader(encode(t, trace.FormatChampSimGz, recs)))
	if err != nil || !created {
		t.Fatalf("ingest: created=%v err=%v", created, err)
	}
	if m.IngestedAt.IsZero() || m.StoredBytes <= 0 {
		t.Errorf("manifest incomplete: %+v", m)
	}
	want := workload.AnalyzeFootprints(trace.RecSlice(recs))
	if m.Footprint != want {
		t.Errorf("footprint = %+v, want %+v", m.Footprint, want)
	}
	if m.Name() != workload.IngestedName(m.Address) {
		t.Errorf("Name() = %q", m.Name())
	}
	// Dedup keeps the original manifest (source format and ingest time).
	m2, created, err := reg.Ingest(bytes.NewReader(encode(t, trace.FormatGZTR, recs)))
	if err != nil || created {
		t.Fatalf("re-ingest: created=%v err=%v", created, err)
	}
	if m2 != m {
		t.Errorf("dedup returned a different manifest: %+v vs %+v", m2, m)
	}
}

func tornTail(data []byte) []byte { return data[:len(data)-1] }

func TestIngestRejectsBadInput(t *testing.T) {
	reg := openTestRegistry(t)
	for _, c := range []struct {
		name  string
		input []byte
		want  error
	}{
		{"empty", nil, trace.ErrTruncated},
		{"champsim garbage", []byte("this is not , a trace\n"), trace.ErrCorrupt},
		// Dropping the final byte always cuts mid-record: the full stream
		// ends exactly at a record boundary.
		{"torn gztr", tornTail(encode(t, trace.FormatGZTR, testRecords(t, 100))), trace.ErrTruncated},
		{"no records", []byte("# only a comment\n"), ErrEmpty},
	} {
		_, _, err := reg.Ingest(bytes.NewReader(c.input))
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if reg.Len() != 0 {
		t.Errorf("failed ingests left %d entries", reg.Len())
	}
}

func TestIngestRecordCap(t *testing.T) {
	reg, err := Open(t.TempDir(), Options{MaxRecords: 50})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(t, 51)
	if _, _, err := reg.Ingest(bytes.NewReader(encode(t, trace.FormatGZTR, recs))); !errors.Is(err, ErrTooLarge) {
		t.Errorf("over-cap ingest: err = %v, want ErrTooLarge", err)
	}
	if _, _, err := reg.IngestRecords(recs, trace.FormatGZTR); !errors.Is(err, ErrTooLarge) {
		t.Errorf("over-cap IngestRecords: err = %v, want ErrTooLarge", err)
	}
}

func TestRegistryReopenAndDelete(t *testing.T) {
	dir := t.TempDir()
	reg, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(t, 500)
	m, _, err := reg.IngestRecords(recs, trace.FormatGZTR)
	if err != nil {
		t.Fatal(err)
	}

	// A half-committed entry (manifest without data) must not surface.
	orphan := filepath.Join(dir, "ab"+m.Address[2:]+".json")
	if err := os.WriteFile(orphan, []byte(`{"address":"ab`+m.Address[2:]+`"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// Foreign json is skipped too.
	if err := os.WriteFile(filepath.Join(dir, "notes.json"), []byte(`{"hi":1}`), 0o644); err != nil {
		t.Fatal(err)
	}

	reopened, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 1 {
		t.Fatalf("reopened registry holds %d entries, want 1", reopened.Len())
	}
	got, ok := reopened.Get(m.Address)
	if !ok || got.Records != m.Records || !got.IngestedAt.Equal(m.IngestedAt) {
		t.Fatalf("reopened manifest = %+v, want %+v", got, m)
	}

	if err := reopened.Delete(m.Address); err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 0 {
		t.Error("delete left the index populated")
	}
	if _, err := os.Stat(filepath.Join(dir, m.Address+".gztr")); !os.IsNotExist(err) {
		t.Error("delete left the record stream on disk")
	}
	if err := reopened.Delete(m.Address); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: err = %v, want ErrNotFound", err)
	}
	if _, err := reopened.Records(m.Address, 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("Records after delete: err = %v, want ErrNotFound", err)
	}
}

// TestRegistryAsSource wires a registry into workload's source resolution
// and materializes an ingested trace by name.
func TestRegistryAsSource(t *testing.T) {
	workload.ResetSources()
	workload.ResetTraceCache()
	defer workload.ResetSources()
	defer workload.ResetTraceCache()

	reg := openTestRegistry(t)
	recs := testRecords(t, 800)
	m, _, err := reg.IngestRecords(recs, trace.FormatGZTR)
	if err != nil {
		t.Fatal(err)
	}
	workload.RegisterSource(reg)

	name := m.Name()
	if !workload.Exists(name) {
		t.Fatalf("workload.Exists(%q) = false", name)
	}
	got, err := workload.Materialize(name, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 || got[0] != recs[0] {
		t.Fatalf("materialized %d records, first %+v", len(got), got[0])
	}
	// Beyond the trace length: all records, no error.
	all, err := workload.Materialize(name, len(recs)+5_000)
	if err != nil || len(all) != len(recs) {
		t.Fatalf("long materialize: %d records, err %v", len(all), err)
	}
	if d, ok := workload.TraceDigest(name); !ok || d != m.Address {
		t.Errorf("TraceDigest = %q, %v; want the registry address", d, ok)
	}

	// Delete drops resident slabs so the name stops resolving.
	if err := reg.Delete(m.Address); err != nil {
		t.Fatal(err)
	}
	if workload.Exists(name) {
		t.Error("deleted trace still Exists")
	}
	if _, err := workload.Materialize(name, 50); err == nil {
		t.Error("deleted trace still materializes")
	}
}

// TestConcurrentIngestSinglEntry hammers one payload from many goroutines
// (run under -race in CI): exactly one creation, one registry entry, and
// every caller sees the same address.
func TestConcurrentIngestSingleEntry(t *testing.T) {
	reg := openTestRegistry(t)
	payload := encode(t, trace.FormatChampSim, testRecords(t, 1_000))
	const workers = 16
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		created int
		addrs   = make(map[string]bool)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, fresh, err := reg.Ingest(bytes.NewReader(payload))
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			if fresh {
				created++
			}
			addrs[m.Address] = true
			mu.Unlock()
		}()
	}
	wg.Wait()
	if created != 1 {
		t.Errorf("created = %d, want exactly 1", created)
	}
	if len(addrs) != 1 {
		t.Errorf("observed %d distinct addresses", len(addrs))
	}
	if reg.Len() != 1 {
		t.Errorf("registry holds %d entries, want 1", reg.Len())
	}
}

func TestValidAddress(t *testing.T) {
	good := DigestRecords(nil)
	if !validAddress(good) {
		t.Errorf("validAddress(%q) = false", good)
	}
	for _, bad := range []string{"", "abc", good[:63], good + "0", "../" + good[3:], good[:63] + "G"} {
		if validAddress(bad) {
			t.Errorf("validAddress(%q) = true", bad)
		}
	}
}

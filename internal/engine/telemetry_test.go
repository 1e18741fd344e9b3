package engine_test

// Engine-level telemetry guarantees: arming interval telemetry is
// invisible to content addressing (byte-identical result stores),
// documents survive the export/import/adopt cluster path
// byte-identically, cached replays collect nothing, and GC reaps a
// result's timeline sidecar with the result.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/sim"
)

var telTestScale = engine.Scale{TracesPerSuite: 1, TraceLen: 10_000, Warmup: 5_000, Sim: 20_000}

func telTestJob() engine.Job {
	return engine.Job{Traces: []string{"lbm-1274"}, L1: []string{"Gaze"}}
}

// runStored executes the job in a fresh store at dir with the given
// telemetry interval and returns the engine and result.
func runStored(t *testing.T, dir string, interval uint64, job engine.Job) (*engine.Engine, sim.Result) {
	t.Helper()
	store, err := engine.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Options{Scale: telTestScale, Store: store, TelemetryInterval: interval})
	res, err := e.RunContext(t.Context(), job)
	if err != nil {
		t.Fatal(err)
	}
	return e, res
}

// TestTelemetryContentAddressInvisible is the acceptance-criteria byte
// check: a store written with telemetry armed holds exactly the same
// result records — same files, same bytes — as one written bare. The
// only difference may be .timeline sidecars, which never carry a .json
// name and never enter an address.
func TestTelemetryContentAddressInvisible(t *testing.T) {
	base := t.TempDir()
	job := telTestJob()
	_, bareRes := runStored(t, filepath.Join(base, "bare"), 0, job)
	_, armedRes := runStored(t, filepath.Join(base, "armed"), 5_000, job)

	if !reflect.DeepEqual(bareRes, armedRes) {
		t.Errorf("results differ with telemetry armed:\nbare  %+v\narmed %+v", bareRes, armedRes)
	}

	bare := storeBytes(t, filepath.Join(base, "bare"))
	armed := storeBytes(t, filepath.Join(base, "armed"))
	jsonFiles := func(m map[string][]byte) map[string][]byte {
		out := map[string][]byte{}
		for rel, data := range m {
			if strings.HasSuffix(rel, ".json") {
				out[rel] = data
			}
		}
		return out
	}
	bareJSON, armedJSON := jsonFiles(bare), jsonFiles(armed)
	if len(bareJSON) == 0 {
		t.Fatal("bare run committed no result records")
	}
	if len(armedJSON) != len(bareJSON) {
		t.Fatalf("result record count: bare %d, armed %d", len(bareJSON), len(armedJSON))
	}
	for rel, want := range bareJSON {
		if got, ok := armedJSON[rel]; !ok || !bytes.Equal(got, want) {
			t.Errorf("result record %s differs byte-wise with telemetry armed", rel)
		}
	}
	if len(bare) != len(bareJSON) {
		t.Errorf("bare store holds %d files but %d result records: telemetry written while disabled", len(bare), len(bareJSON))
	}
	var sidecars int
	for rel := range armed {
		if strings.HasSuffix(rel, ".timeline") {
			sidecars++
		}
	}
	if sidecars == 0 {
		t.Error("armed run persisted no .timeline sidecar")
	}
}

// TestTelemetryExportImportAdopt walks a document through the cluster
// path: the computing engine's persisted bytes import-verify under their
// address, adopt verbatim on a second engine, and land on its disk
// byte-identical. A document claiming a foreign address must be refused.
func TestTelemetryExportImportAdopt(t *testing.T) {
	base := t.TempDir()
	job := telTestJob()
	worker, _ := runStored(t, filepath.Join(base, "worker"), 5_000, job)
	addr := job.ContentAddress(telTestScale)
	doc, ok := worker.Telemetry(addr)
	if !ok {
		t.Fatal("worker produced no timeline document")
	}

	key, tel, err := engine.ImportTelemetry(addr, doc)
	if err != nil {
		t.Fatalf("canonical document failed import verification: %v", err)
	}
	if tel == nil || len(tel.Cores) == 0 {
		t.Fatal("import returned empty telemetry")
	}
	reenc, err := engine.ExportTelemetry(key, tel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc, doc) {
		t.Error("export does not round-trip the persisted bytes: local and worker documents would diverge")
	}

	coordDir := filepath.Join(base, "coord")
	coordStore, err := engine.Open(coordDir)
	if err != nil {
		t.Fatal(err)
	}
	coord := engine.New(engine.Options{Scale: telTestScale, Store: coordStore})
	coord.AdoptTelemetry(key, doc)
	got, ok := coord.Telemetry(addr)
	if !ok || !bytes.Equal(got, doc) {
		t.Fatal("adopted document not served verbatim")
	}
	onDisk, err := os.ReadFile(filepath.Join(coordDir, addr[:2], addr[2:]+".timeline"))
	if err != nil || !bytes.Equal(onDisk, doc) {
		t.Fatalf("adopted document not persisted verbatim: %v", err)
	}

	// Verification: the same bytes under a different address are refused.
	otherAddr := strings.Repeat("0", 64)
	if _, _, err := engine.ImportTelemetry(otherAddr, doc); err == nil {
		t.Error("document accepted under an address its key does not hash to")
	}
	if _, _, err := engine.ImportTelemetry(addr, []byte("{")); err == nil {
		t.Error("garbage document accepted")
	}
}

// TestCachedRunCollectsNoTelemetry: a store hit replays the persisted
// result without simulating, so an armed engine that never computes the
// job holds no timeline for it.
func TestCachedRunCollectsNoTelemetry(t *testing.T) {
	dir := t.TempDir()
	job := telTestJob()
	runStored(t, dir, 0, job) // populate the store bare

	store, err := engine.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Options{Scale: telTestScale, Store: store, TelemetryInterval: 5_000})
	if _, err := e.RunContext(t.Context(), job); err != nil {
		t.Fatal(err)
	}
	addr := job.ContentAddress(telTestScale)
	if _, ok := e.Telemetry(addr); ok {
		t.Error("store-hit replay produced a timeline document")
	}
}

// TestGCReapsTelemetrySidecar: deleting an unreferenced result removes
// its timeline sidecar and the telemetry byte accounting with it.
func TestGCReapsTelemetrySidecar(t *testing.T) {
	dir := t.TempDir()
	job := telTestJob()
	e, _ := runStored(t, dir, 5_000, job)
	addr := job.ContentAddress(telTestScale)
	if _, ok := e.Telemetry(addr); !ok {
		t.Fatal("no timeline document before GC")
	}
	st := e.TelemetryStats()
	if st.Documents == 0 || st.Bytes == 0 {
		t.Fatalf("telemetry stats before GC: %+v", st)
	}

	stats, err := e.GC(engine.GCPolicy{}, func() map[string]bool { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Deleted == 0 {
		t.Fatal("GC deleted nothing")
	}
	sidecar := filepath.Join(dir, addr[:2], addr[2:]+".timeline")
	if _, err := os.Stat(sidecar); !os.IsNotExist(err) {
		t.Errorf("timeline sidecar survived its result's GC: %v", err)
	}
	// The memo still answers (the engine computed it this process), but
	// the store accounting must be back to zero.
	st = e.TelemetryStats()
	if st.Documents != 0 || st.Bytes != 0 {
		t.Errorf("telemetry stats after GC: %+v, want zero documents/bytes", st)
	}
}

// storeBytes reads every result file under dir keyed by relative path.
func storeBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		files[rel] = data
		return nil
	})
	if err != nil {
		t.Fatalf("walking store %s: %v", dir, err)
	}
	return files
}

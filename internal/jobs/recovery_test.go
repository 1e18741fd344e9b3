package jobs_test

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/server"
)

// TestRecoveredJobThatNoLongerCompilesFails replays a journal holding a
// queued job whose spec the current compiler rejects — here a simulate
// request carrying the slice_shards override that time-sliced execution
// used to accept. Recovery must surface it as failed with the recompile
// error and marked recovered, like jobs the same restart interrupted: not
// dropped from the table, and never run.
func TestRecoveredJobThatNoLongerCompilesFails(t *testing.T) {
	dir := t.TempDir()
	line := `{"time":"2026-07-30T12:00:00Z","id":"stale-job","state":"queued","spec":{"type":"simulate",` +
		`"request":{"trace":"lbm-1274","prefetcher":"Gaze","overrides":{"slice_shards":4}}}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "journal.ndjson"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}

	open := func() (*jobs.Manager, *engine.Engine) {
		t.Helper()
		eng := engine.New(engine.Options{Scale: engine.Quick})
		m, err := jobs.Open(jobs.Options{Engine: eng, Compile: server.Compiler(eng), Dir: dir, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		return m, eng
	}
	shutdown := func(m *jobs.Manager) {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}

	m, eng := open()
	rec, ok := m.Get("stale-job")
	if !ok {
		t.Fatal("stale queued job dropped on recovery")
	}
	if rec.State != jobs.Failed {
		t.Fatalf("stale job state = %s, want failed", rec.State)
	}
	if !rec.Recovered {
		t.Error("stale job failed at recovery is not marked recovered")
	}
	for _, want := range []string{"recompiling recovered job", `unknown field "slice_shards"`} {
		if !strings.Contains(rec.Error, want) {
			t.Errorf("stale job error %q does not contain %q", rec.Error, want)
		}
	}
	if c := m.Counters(); c.Recovered != 0 || c.Failed != 1 || c.Queued != 0 {
		t.Errorf("counters = %+v, want 0 recovered, 1 failed, 0 queued", c)
	}
	shutdown(m)
	if c := eng.Counters(); c != (engine.Counters{}) {
		t.Errorf("engine counters = %+v: the stale job ran", c)
	}

	// The failure is journaled: a second restart still reports it.
	m2, _ := open()
	defer shutdown(m2)
	if rec, ok := m2.Get("stale-job"); !ok || rec.State != jobs.Failed {
		t.Errorf("after second restart, stale job = %+v", rec)
	}
}

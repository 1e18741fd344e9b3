package jobs_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/server"
	"repro/internal/sim"
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

// stubCompile accepts sweep and simulate specs as plans with no engine
// jobs; stubExecute completes any plan at once. Together they let a
// manager replay and run a journal without simulating.
func stubCompile(spec jobs.Spec) (*jobs.Plan, error) {
	if spec.Type != "sweep" && spec.Type != "simulate" {
		return nil, errors.New("unknown type")
	}
	return &jobs.Plan{
		Fingerprint: string(spec.Request),
		Finalize:    func([]sim.Result) any { return spec.Type },
	}, nil
}

func stubExecute(_ context.Context, js []engine.Job, _ func(engine.Progress)) ([]sim.Result, error) {
	return make([]sim.Result, len(js)), nil
}

// TestJournalSkipsPathIDs: a journal entry whose ID holds a path
// separator is skipped at replay, so its job never writes a result file
// outside the results directory.
func TestJournalSkipsPathIDs(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "jobs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	line := `{"time":"2026-07-30T12:00:00Z","id":"../../escape","state":"queued",` +
		`"spec":{"type":"sweep","request":{}}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "journal.ndjson"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Scale: engine.Quick})
	m, err := jobs.Open(jobs.Options{Engine: eng, Compile: stubCompile, Execute: stubExecute, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if recs := m.List(); len(recs) != 0 {
		t.Errorf("replayed %d jobs, want the path ID skipped", len(recs))
	}
}

// FuzzJournalReplay opens a manager over an arbitrary journal.ndjson
// with a stub compiler and executor, so nothing simulates. Replay must
// never panic, and once the recovered jobs have run, a restart over the
// compacted journal must list the same jobs in the same states.
func FuzzJournalReplay(f *testing.F) {
	spec := `"spec":{"type":"sweep","request":{"traces":["lbm-1274"]}}`
	for _, seed := range []string{
		`{"time":"2026-07-30T12:00:00Z","id":"a","state":"queued",` + spec + `}` + "\n",
		`{"time":"2026-07-30T12:00:00Z","id":"a","state":"queued",` + spec + `}` + "\n" +
			`{"time":"2026-07-30T12:00:01Z","id":"a","state":"running"}` + "\n" +
			`{"time":"2026-07-30T12:00:00Z","id":"b","state":"queued","spec":{"type":"other","request":{}}}` + "\n" +
			`{"time":"2026-07-30T12:00:00Z","id":"c","state":"queued",` + spec + `,"priority":"high"}` + "\n" +
			`{"time":"2026-07-30T12:00:02Z","id":"c","state":"succeeded","timings":{"total_ms":3,"phases":{"execute":2}},` +
			`"trace_id":"t","addresses":["x"]}` + "\n" +
			`{"time":"2026-07-30T12:00:00Z","id":"d","state":"queued","spec":{"type":"simulate","request":null,"priority":"urgent"}}` + "\n" +
			`{"time":"2026-07-30T12:00:03Z","id":"d","state":"failed","error":"boom"}` + "\n" +
			`{"time":"2026-07-30T12:00:03Z","id":"e","state":"canceled"}` + "\n" +
			`{"time":"2026-07-30T12:00:00Z","id":"f","state":"bogus",` + spec + `}` + "\n" +
			`{"time":"2026-07-30T12:00:00Z","id":"../escape","state":"queued",` + spec + `}` + "\n" +
			`{"time":"2026-07-30T12:00:00Z","id":"g","state":"queu`,
		"garbage\n\n{}\n[]\nnull\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	eng := engine.New(engine.Options{Scale: engine.Quick})
	type listed struct{ ID, State, Error string }
	openList := func(t *testing.T, dir string, settle bool) []listed {
		m, err := jobs.Open(jobs.Options{Engine: eng, Compile: stubCompile, Execute: stubExecute, Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := m.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
		}()
		for deadline := time.Now().Add(10 * time.Second); settle; time.Sleep(time.Millisecond) {
			if c := m.Counters(); c.Queued+c.Running == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("recovered jobs never settled: %+v", m.Counters())
			}
		}
		var out []listed
		for _, rec := range m.List() {
			out = append(out, listed{rec.ID, string(rec.State), rec.Error})
		}
		return out
	}
	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.ndjson"), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		first := openList(t, dir, true)
		if again := openList(t, dir, false); !reflect.DeepEqual(again, first) {
			t.Fatalf("reopening the compacted journal changed the job table:\nfirst %v\nagain %v", first, again)
		}
	})
}

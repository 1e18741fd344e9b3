package jobs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/engine"
)

// The journal is an append-only NDJSON file of state transitions — one
// object per line, written under Manager.mu so lines never interleave. A
// queued entry carries the full spec (the replay seed); later entries for
// the same ID carry only the new state. Recovery folds the file to the
// last state per job: queued jobs re-enqueue, jobs that were running when
// the process died are surfaced as interrupted, terminal jobs become
// historical records. A torn final line — the signature of a crash
// mid-append — is skipped on read and healed by the compacting rewrite at
// Open.

// entry is one journal line. Terminal entries carry the job's phase
// timings and trace ID so GET /jobs/{id} (and /debug/traces?job=) keep
// reporting them after a restart.
type entry struct {
	Time    time.Time `json:"time"`
	ID      string    `json:"id"`
	State   State     `json:"state"`
	Error   string    `json:"error,omitempty"`
	Spec    *Spec     `json:"spec,omitempty"`
	Timings *Timings  `json:"timings,omitempty"`
	TraceID string    `json:"trace_id,omitempty"`
	// Addresses rides terminal entries of succeeded jobs so artifact
	// links (timeline documents) survive restarts like Timings does.
	Addresses []string `json:"addresses,omitempty"`
}

// journal owns the append handle. Appends are serialized by Manager.mu.
type journal struct {
	path string
	f    *os.File
}

// openJournal reads every decodable entry from path (skipping torn or
// corrupt lines) and opens the file for appending.
func openJournal(path string) (*journal, []entry, error) {
	var entries []entry
	if data, err := os.ReadFile(path); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var e entry
			if err := json.Unmarshal(line, &e); err != nil || e.ID == "" {
				continue // torn tail or foreign garbage
			}
			if strings.ContainsAny(e.ID, `/\`) {
				// Not an ID this package issues, and it would name a
				// result file outside results/.
				continue
			}
			entries = append(entries, e)
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("jobs: reading journal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: opening journal: %w", err)
	}
	return &journal{path: path, f: f}, entries, nil
}

// append writes one entry. Best-effort at call sites: a full disk must
// not fail job execution, it only degrades recovery.
func (j *journal) append(e entry) error {
	data, err := json.Marshal(e)
	if err != nil {
		return err
	}
	_, err = j.f.Write(append(data, '\n'))
	return err
}

// rewrite atomically replaces the journal with the given entries
// (compaction) and reopens the append handle on the new file.
func (j *journal) rewrite(entries []entry) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf) // Encode appends the newline NDJSON needs
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	if err := engine.WriteFileAtomic(j.path, buf.Bytes()); err != nil {
		return err
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f.Close()
	j.f = f
	return nil
}

// close flushes the journal to stable storage — the last step of a
// graceful shutdown.
func (j *journal) close() error {
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}

// journalLocked appends the record's current state. Caller holds m.mu.
func (m *Manager) journalLocked(rec *record) {
	if m.journal == nil {
		return
	}
	e := entry{Time: time.Now(), ID: rec.ID, State: rec.State, Error: rec.Error}
	if rec.State == Queued {
		spec := rec.Spec
		e.Spec = &spec
	}
	if rec.State.Terminal() {
		e.Timings = rec.Timings
		e.TraceID = rec.TraceID
		e.Addresses = rec.Addresses
	}
	m.journal.append(e) //nolint:errcheck // best-effort durability
}

// recover rebuilds the job table from replayed entries. Called from Open
// before the dispatcher starts, so no locking is needed yet.
func (m *Manager) recover(entries []entry) {
	type folded struct {
		spec    *Spec
		state   State
		err     string
		first   time.Time
		last    time.Time
		timings *Timings
		traceID string
		addrs   []string
	}
	byID := make(map[string]*folded)
	var ids []string // first-appearance order
	for _, e := range entries {
		f, ok := byID[e.ID]
		if !ok {
			f = &folded{first: e.Time}
			byID[e.ID] = f
			ids = append(ids, e.ID)
		}
		if e.Spec != nil {
			f.spec = e.Spec
		}
		f.state, f.err, f.last, f.timings, f.traceID = e.State, e.Error, e.Time, e.Timings, e.TraceID
		f.addrs = e.Addresses
	}
	for _, id := range ids {
		f := byID[id]
		if f.spec == nil {
			continue // queued entry lost; nothing to replay
		}
		rec := &record{Record: Record{
			ID: id, Spec: *f.spec, State: f.state, Error: f.err,
			Created: f.first, Timings: f.timings, TraceID: f.traceID,
			Addresses: f.addrs,
		}}
		switch f.state {
		case Queued, Running:
			if f.state == Running {
				// The process died mid-run. The work is resumable in
				// principle (partial results are in the store), but silently
				// re-running would hide the crash — surface it and let the
				// client resubmit (same ID, and completed shards replay from
				// the result store).
				rec.State = Interrupted
				rec.Error = "interrupted by restart"
				rec.Recovered = true
				rec.Finished = f.last
				break
			}
			plan, err := m.compile(*f.spec)
			if err != nil {
				// The spec no longer compiles (catalogue or schema drift):
				// fail it visibly rather than dropping it.
				rec.State = Failed
				rec.Error = fmt.Sprintf("jobs: recompiling recovered job: %v", err)
				rec.Finished = time.Now()
				rec.Recovered = true
				break
			}
			rec.plan = plan
			rec.Recovered = true
			m.recovered++
			m.lanes[specLane(*f.spec)] = append(m.lanes[specLane(*f.spec)], id)
		default:
			rec.Finished = f.last
		}
		m.recs[id] = rec
		m.order = append(m.order, id)
	}
}

// specLane returns the dispatch lane a recovered spec belongs to,
// defaulting unknown/absent priorities to Normal (a journal written by a
// newer binary must still replay).
func specLane(spec Spec) Priority {
	if spec.Priority == High {
		return High
	}
	return Normal
}

// compactedEntries renders the current job table as a minimal journal.
// Caller holds m.mu or runs before the dispatcher starts.
func (m *Manager) compactedEntries() []entry {
	var out []entry
	for _, id := range m.order {
		rec := m.recs[id]
		spec := rec.Spec
		out = append(out, entry{Time: rec.Created, ID: id, State: Queued, Spec: &spec})
		if rec.State != Queued {
			e := entry{Time: rec.Finished, ID: id, State: rec.State, Error: rec.Error}
			if rec.State.Terminal() {
				e.Timings = rec.Timings
				e.TraceID = rec.TraceID
				e.Addresses = rec.Addresses
			}
			out = append(out, e)
		}
	}
	return out
}

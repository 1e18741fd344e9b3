package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// StoreSchemaVersion invalidates every persisted record when the
// simulator's observable behaviour or the canonical job encoding changes
// (config defaults, metric definitions, workload generators, key schema).
// Bump it instead of asking users to wipe caches.
//
// v2: keys switched from ad-hoc fingerprint strings to the canonical JSON
// job encoding (declarative Overrides replaced config-mutation closures).
const StoreSchemaVersion = 2

// Store is a content-addressed, disk-persisted result cache. Keys are
// canonical JSON job encodings (Job.CanonicalJSON) — a declarative record
// of everything that determines a simulation's outcome: scale budgets,
// traces, prefetchers, config Overrides. Values are sim.Result records
// stored as JSON under dir/<hh>/<hash>.json, where the hash is the job's
// ContentAddress (the SHA-256 of the key) and hh its first byte. Writes
// are atomic (temp file + rename), so
// concurrent engines sharing one directory never observe torn records.
//
// A Store is safe for concurrent use; the zero value is not usable — call
// Open.
type Store struct {
	dir string

	// entries counts persisted records: initialized by one walk at Open,
	// then maintained incrementally so Len never rescans the directory.
	// Other processes sharing the directory can make it drift; it is a
	// monitoring number, not a correctness input.
	entries atomic.Int64

	// telemetryDocs/telemetryBytes count persisted .timeline sidecar
	// documents the same way: one Open walk, incremental maintenance,
	// monitoring-grade accuracy.
	telemetryDocs  atomic.Int64
	telemetryBytes atomic.Int64

	// witness is the largest shard-directory mtime (Unix nanoseconds) a
	// CompletionProbe has observed, stamps ahead of the local clock left
	// out: proof that the filesystem clock has reached it, so any later
	// change to a directory whose mtime is older stamps a different one.
	witness atomic.Int64
}

// DefaultDir returns the store directory used when none is configured:
// $GAZE_CACHE_DIR if set, else <user cache dir>/gaze-repro, else a
// directory under os.TempDir.
func DefaultDir() string {
	if d := os.Getenv("GAZE_CACHE_DIR"); d != "" {
		return d
	}
	if base, err := os.UserCacheDir(); err == nil {
		return filepath.Join(base, "gaze-repro")
	}
	return filepath.Join(os.TempDir(), "gaze-repro")
}

// Open creates (if needed) and returns the store rooted at dir. An empty
// dir selects DefaultDir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		dir = DefaultDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: opening result store: %w", err)
	}
	s := &Store{dir: dir}
	s.entries.Store(int64(s.countEntries()))
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// record is the on-disk schema. Key is stored in full so hash collisions
// and cross-version reuse are detected on read rather than silently
// returning a wrong result.
type record struct {
	Version int        `json:"version"`
	Key     string     `json:"key"`
	Result  sim.Result `json:"result"`
}

func hashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

func (s *Store) path(key string) string { return s.addrPath(hashKey(key)) }

// addrPath returns the record path for a content address:
// shardPath(addr)/<rest>.json.
func (s *Store) addrPath(addr string) string {
	return s.shardPath(addr) + string(filepath.Separator) + addr[2:] + ".json"
}

// shardPath returns the directory holding a content address's record
// and sidecar: dir/<hh>, hh the address's first byte.
func (s *Store) shardPath(addr string) string {
	return s.dir + string(filepath.Separator) + addr[:2]
}

// observeShardTime raises the witness to a shard-directory mtime seen
// by a probe, unless the stamp is ahead of now (a skewed or hand-set
// clock), which proves nothing about the filesystem clock.
func (s *Store) observeShardTime(mtime, now int64) {
	if mtime > now {
		return
	}
	for {
		w := s.witness.Load()
		if mtime <= w || s.witness.CompareAndSwap(w, mtime) {
			return
		}
	}
}

// Get returns the persisted result for key. Corrupted, stale-version or
// colliding entries are deleted and reported as a miss, so a damaged cache
// heals itself through recomputation.
func (s *Store) Get(key string) (sim.Result, bool) {
	p := s.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		return sim.Result{}, false
	}
	if rec, err := decodeRecord(data); err == nil && rec.Key == key {
		return rec.Result, true
	}
	if os.Remove(p) == nil {
		s.entries.Add(-1)
	}
	return sim.Result{}, false
}

// Put persists the result for key, replacing any previous entry.
func (s *Store) Put(key string, res sim.Result) error {
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("engine: writing result store: %w", err)
	}
	data, err := encodeRecord(key, res)
	if err != nil {
		return fmt.Errorf("engine: encoding result: %w", err)
	}
	_, statErr := os.Stat(p)
	if err := WriteFileAtomic(p, data); err != nil {
		return fmt.Errorf("engine: writing result store: %w", err)
	}
	if statErr != nil { // the write created the entry rather than replacing it
		s.entries.Add(1)
	}
	return nil
}

// WriteFileAtomic writes data to path via a same-directory temp file and
// rename, so concurrent readers — and crashes — never observe a torn
// file. It is the torn-write discipline every persistence layer here
// (store records, job journals, job result documents) shares.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Len returns the number of persisted entries (counted at Open, tracked
// incrementally after).
func (s *Store) Len() int { return int(s.entries.Load()) }

// StoreEntry describes one persisted record for GC and monitoring:
// its content address, on-disk size, and last-modified time (the age the
// GC policy measures — Put refreshes it, so a recomputed entry is young
// again).
type StoreEntry struct {
	Address string
	Bytes   int64
	ModTime time.Time
}

// isAddress reports whether s is a 64-hex-digit content address.
func isAddress(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// Entries walks the store and returns every persisted record that is
// address-shaped (dir/<hh>/<rest>.json with <hh><rest> a 64-hex-digit
// address). Foreign files and temp files are skipped; contents are not
// read, so a stale-schema record still lists (Open sweeps those, and
// Remove on one is harmless).
func (s *Store) Entries() []StoreEntry {
	var out []StoreEntry
	filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != s.dir && !isShardDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".json" {
			return nil
		}
		addr := filepath.Base(filepath.Dir(path)) + strings.TrimSuffix(d.Name(), ".json")
		if !isAddress(addr) {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		out = append(out, StoreEntry{Address: addr, Bytes: info.Size(), ModTime: info.ModTime()})
		return nil
	})
	return out
}

// Remove deletes the entry at the given content address, returning the
// bytes reclaimed and whether an entry existed. It is the GC's delete
// primitive; a concurrent Put of the same address can recreate the entry
// immediately after, which is safe — the result is identical by
// content-addressing. A telemetry sidecar at the same address is deleted
// with its result (and counted into the reclaimed bytes): derived data
// never outlives the record it describes.
func (s *Store) Remove(addr string) (reclaimed int64, existed bool) {
	if !isAddress(addr) {
		return 0, false
	}
	p := s.addrPath(addr)
	info, err := os.Stat(p)
	if err != nil {
		return 0, false
	}
	if os.Remove(p) != nil {
		return 0, false
	}
	s.entries.Add(-1)
	reclaimed = info.Size()
	tp := s.telemetryPath(addr)
	if tinfo, err := os.Stat(tp); err == nil && os.Remove(tp) == nil {
		s.telemetryDocs.Add(-1)
		s.telemetryBytes.Add(-tinfo.Size())
		reclaimed += tinfo.Size()
	}
	return reclaimed, true
}

// telemetryPath returns the sidecar path for a content address. The
// .timeline extension keeps sidecars invisible to every .json-keyed walk
// (Entries, the Open-time sweep) — a telemetry document can never be
// mistaken for, or swept as, a stale result record.
func (s *Store) telemetryPath(addr string) string {
	return filepath.Join(s.dir, addr[:2], addr[2:]+".timeline")
}

// PutTelemetry persists the canonical telemetry document for a job key
// beside its result record, atomically, replacing any previous sidecar.
func (s *Store) PutTelemetry(key string, doc []byte) error {
	p := s.telemetryPath(hashKey(key))
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("engine: writing telemetry store: %w", err)
	}
	info, statErr := os.Stat(p)
	if err := WriteFileAtomic(p, doc); err != nil {
		return fmt.Errorf("engine: writing telemetry store: %w", err)
	}
	if statErr != nil {
		s.telemetryDocs.Add(1)
	} else {
		s.telemetryBytes.Add(-info.Size())
	}
	s.telemetryBytes.Add(int64(len(doc)))
	return nil
}

// GetTelemetry returns the persisted telemetry document bytes for a
// content address. The bytes are returned verbatim — serving and ETag
// layers hash them as-is.
func (s *Store) GetTelemetry(addr string) ([]byte, bool) {
	if !isAddress(addr) {
		return nil, false
	}
	data, err := os.ReadFile(s.telemetryPath(addr))
	if err != nil {
		return nil, false
	}
	return data, true
}

// TelemetryLen returns the number of persisted telemetry sidecars and
// their total bytes (counted at Open, tracked incrementally after).
func (s *Store) TelemetryLen() (docs int64, bytes int64) {
	return s.telemetryDocs.Load(), s.telemetryBytes.Load()
}

// recordPrefix is the exact leading bytes Put's MarshalIndent emits for a
// current-schema record. Open's walk matches it to recognize our own
// records from a bounded read instead of loading every record's full
// contents on every process start.
var recordPrefix = versionHeader(StoreSchemaVersion)

// versionHeader is the exact leading bytes MarshalIndent emits for a
// document whose first field is version v (the trailing comma keeps e.g.
// version 20 from matching a version-2 check).
func versionHeader(v int) []byte { return fmt.Appendf(nil, "{\n\t\"version\": %d,", v) }

// isShardDir reports whether name is a two-hex-digit shard directory —
// the only kind of subdirectory the store creates.
func isShardDir(name string) bool {
	if len(name) != 2 {
		return false
	}
	for i := 0; i < 2; i++ {
		c := name[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// hasCurrentVersionPrefix reports whether the file starts with the exact
// byte prefix Put writes for the current schema. False on any error — the
// caller's slow path decides what to do.
func hasCurrentVersionPrefix(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	buf := make([]byte, len(recordPrefix))
	if _, err := io.ReadFull(f, buf); err != nil {
		return false
	}
	return bytes.Equal(buf, recordPrefix)
}

// countEntries walks the store once (at Open), counting records and
// sweeping garbage: temp files orphaned by killed processes (the age
// guard keeps it from deleting a concurrent engine's in-flight write) and
// records from stale schema versions. The latter matters because a schema
// bump can change the key format itself — v1 fingerprint-string records
// sit at paths no v2 Get ever probes, so the version-check-on-read
// cleanup would never reach them and they would inflate Len forever.
// Current-schema records are recognized from a bounded prefix read, so
// the steady-state walk stays cheap; only foreign-looking files pay a
// full read before deletion.
func (s *Store) countEntries() int {
	const staleAfter = time.Hour
	n := 0
	filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			// Only descend into the store's own <hh> shard directories:
			// anything else under the root (a foreign tool's data, a
			// mispointed jobs journal) is not ours to sweep.
			if path != s.dir && !isShardDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case filepath.Ext(path) == ".json":
			if hasCurrentVersionPrefix(path) {
				n++
				break
			}
			// Slow path: read the whole record to tell stale/corrupt
			// garbage (delete) apart from a transient read error (skip —
			// deleting on EMFILE or an NFS hiccup would discard valid
			// results; Len is a monitoring number and tolerates the drift).
			data, err := os.ReadFile(path)
			if err != nil {
				break
			}
			var rec struct {
				Version int `json:"version"`
			}
			switch err := json.Unmarshal(data, &rec); {
			case err == nil && rec.Version == StoreSchemaVersion:
				n++
			case err == nil && rec.Version > StoreSchemaVersion:
				// A newer binary sharing this directory wrote it; deleting
				// would make mixed-version deployments thrash the store to
				// empty on every Open. Leave it, don't count it.
			default: // unparseable or older-schema garbage
				os.Remove(path)
			}
		case filepath.Ext(path) == ".timeline":
			// Telemetry sidecars: counted for monitoring, never swept —
			// they are derived data verified on read, and GC removes them
			// with their result records.
			if addr := filepath.Base(filepath.Dir(path)) + strings.TrimSuffix(d.Name(), ".timeline"); isAddress(addr) {
				if info, err := d.Info(); err == nil {
					s.telemetryDocs.Add(1)
					s.telemetryBytes.Add(info.Size())
				}
			}
		case strings.HasPrefix(d.Name(), ".tmp-"):
			if info, err := d.Info(); err == nil && time.Since(info.ModTime()) > staleAfter {
				os.Remove(path)
			}
		}
		return nil
	})
	return n
}

// Package traceset is the durable, content-addressed trace registry — the
// bridge from the synthetic workload catalogue to the paper's world of
// real captured traces (ChampSim recordings of SPEC/GAP/LLBench, §V).
// Ingestion accepts any format the trace codec layer speaks (native GZTR,
// ChampSim-style lines, gzip-wrapped variants of both), streams the
// records through validation, and commits an atomically-written registry
// entry: `<dir>/<address>.gztr` holding the normalized record stream plus
// `<dir>/<address>.json` holding the manifest (record count, footprint
// summary, source format, ingest time).
//
// The address is the SHA-256 of the normalized record stream, NOT of the
// uploaded bytes: re-uploading the same logical trace as raw ChampSim
// text, re-gzipped, or re-encoded GZTR dedups onto one entry. The address
// doubles as the trace's engine-cache identity — a Registry implements
// workload.Source, so `ingested:<address>` names run through
// workload.MaterializeRecords, engine jobs, sweeps and the HTTP API
// exactly like catalogue names, and the digest embedded in the name keeps
// result-store keys sound.
package traceset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Typed ingestion errors; the HTTP layer maps them (plus the trace codec's
// ErrCorrupt/ErrTruncated) to client errors.
var (
	// ErrEmpty reports an upload that decoded to zero records.
	ErrEmpty = errors.New("traceset: trace has no records")
	// ErrTooLarge reports an upload beyond the registry's record cap.
	ErrTooLarge = errors.New("traceset: trace exceeds the record limit")
	// ErrNotFound reports an unknown registry address.
	ErrNotFound = errors.New("traceset: no such trace")
)

// DefaultMaxRecords bounds one ingested trace (~230MB of resident records
// at 24 bytes each) so a single upload cannot wedge the process; Options
// can raise or lower it.
const DefaultMaxRecords = 10_000_000

// Manifest is the durable description of one registry entry — the JSON
// document persisted beside the record stream and served by the HTTP API.
type Manifest struct {
	// Address is the SHA-256 hex digest of the normalized record stream —
	// the entry's identity, file name, and engine-cache digest.
	Address string `json:"address"`
	// Records is the trace's record count.
	Records int `json:"records"`
	// SourceFormat is the format the trace was originally ingested from.
	SourceFormat trace.Format `json:"source_format"`
	// IngestedAt is when the entry was first committed (dedup re-uploads
	// keep the original manifest).
	IngestedAt time.Time `json:"ingested_at"`
	// StoredBytes is the size of the normalized GZTR stream on disk.
	StoredBytes int64 `json:"stored_bytes"`
	// Footprint is the §III-C spatial-density summary of the trace.
	Footprint workload.FootprintStats `json:"footprint"`
}

// Name returns the workload name the entry runs under ("ingested:<addr>").
func (m Manifest) Name() string { return workload.IngestedName(m.Address) }

// Options configures Open.
type Options struct {
	// MaxRecords caps one ingested trace (0 selects DefaultMaxRecords).
	MaxRecords int
}

// Registry is the on-disk trace store. It is safe for concurrent use; all
// mutation goes through atomic file writes, so concurrent registries
// sharing one directory never observe torn entries.
type Registry struct {
	dir        string
	maxRecords int

	mu    sync.Mutex
	cond  *sync.Cond
	index map[string]Manifest
	// pending marks addresses whose entry is being committed, so racing
	// ingests of the same records single-flight onto one creation without
	// the heavy work (footprint analysis, file writes) holding mu — Get,
	// Exists and Load stay responsive during large ingests.
	pending map[string]bool
}

// Open creates (if needed) the registry directory and loads its index
// from the persisted manifests. Manifests that fail to parse or whose
// address does not match their file name are skipped (never deleted —
// they may belong to a newer schema).
func Open(dir string, opts Options) (*Registry, error) {
	if opts.MaxRecords <= 0 {
		opts.MaxRecords = DefaultMaxRecords
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("traceset: opening registry: %w", err)
	}
	r := &Registry{dir: dir, maxRecords: opts.MaxRecords, index: make(map[string]Manifest), pending: make(map[string]bool)}
	r.cond = sync.NewCond(&r.mu)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("traceset: reading registry: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		var m Manifest
		if json.Unmarshal(data, &m) != nil {
			continue
		}
		if m.Address != strings.TrimSuffix(e.Name(), ".json") || !validAddress(m.Address) {
			continue
		}
		if _, err := os.Stat(r.dataPath(m.Address)); err != nil {
			continue // manifest without its record stream: half an entry
		}
		r.index[m.Address] = m
	}
	return r, nil
}

// Dir returns the registry's root directory.
func (r *Registry) Dir() string { return r.dir }

// validAddress reports whether s is a well-formed entry address (64 hex
// digits), keeping path construction safe from traversal.
func validAddress(s string) bool {
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

func (r *Registry) dataPath(addr string) string {
	return filepath.Join(r.dir, addr+".gztr")
}

func (r *Registry) manifestPath(addr string) string {
	return filepath.Join(r.dir, addr+".json")
}

// colsPath locates the entry's columnar sidecar — the mmap-ready
// fixed-width encoding written beside the GZTR stream.
func (r *Registry) colsPath(addr string) string {
	return filepath.Join(r.dir, addr+".cols")
}

// DigestRecords returns the content address of a record stream: the
// SHA-256 over a versioned, fixed-width little-endian serialization of
// every record. Hashing the records rather than the encoded file is what
// makes byte-different re-uploads of the same logical trace (re-gzipped,
// format-converted) dedup onto one entry.
func DigestRecords(recs []trace.Record) string {
	h := sha256.New()
	io.WriteString(h, "gaze-traceset/v1\n")
	var buf [19]byte
	for _, rec := range recs {
		binary.LittleEndian.PutUint64(buf[0:8], rec.PC)
		binary.LittleEndian.PutUint64(buf[8:16], rec.Addr)
		binary.LittleEndian.PutUint16(buf[16:18], rec.NonMem)
		buf[18] = byte(rec.Kind)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Ingest decodes src (format sniffed: GZTR or ChampSim lines, either
// optionally gzip-wrapped), validates and normalizes the records, and
// commits them under their content address. The returned bool reports
// whether a new entry was created; false means the upload deduped onto an
// existing one, whose original manifest is returned. Decode failures
// surface the trace codec's typed errors (ErrCorrupt, ErrTruncated).
func (r *Registry) Ingest(src io.Reader) (Manifest, bool, error) {
	rd, format, err := trace.Detect(src)
	if err != nil {
		return Manifest{}, false, err
	}
	recs, err := trace.Collect(rd, r.maxRecords+1)
	if err != nil {
		return Manifest{}, false, err
	}
	if len(recs) == 0 {
		return Manifest{}, false, ErrEmpty
	}
	if len(recs) > r.maxRecords {
		return Manifest{}, false, fmt.Errorf("%w: more than %d records", ErrTooLarge, r.maxRecords)
	}
	return r.IngestRecords(recs, format)
}

// IngestRecords commits an already-decoded record stream (the path
// tracegen-style tooling uses; Ingest delegates here). Racing ingests of
// the same records single-flight onto one creation — exactly one caller
// reports created, everyone else observes the dedup — while the heavy
// work (footprint analysis, encoding, file writes) runs outside the
// registry lock so concurrent lookups never stall behind a large ingest.
func (r *Registry) IngestRecords(recs []trace.Record, format trace.Format) (Manifest, bool, error) {
	if len(recs) == 0 {
		return Manifest{}, false, ErrEmpty
	}
	if len(recs) > r.maxRecords {
		return Manifest{}, false, fmt.Errorf("%w: more than %d records", ErrTooLarge, r.maxRecords)
	}
	addr := DigestRecords(recs)

	r.mu.Lock()
	for {
		if m, ok := r.index[addr]; ok {
			r.mu.Unlock()
			return m, false, nil
		}
		if !r.pending[addr] {
			break
		}
		r.cond.Wait()
	}
	r.pending[addr] = true
	r.mu.Unlock()

	m, err := r.commit(addr, recs, format)

	r.mu.Lock()
	delete(r.pending, addr)
	if err == nil {
		r.index[addr] = m
	}
	r.cond.Broadcast()
	r.mu.Unlock()
	if err != nil {
		return Manifest{}, false, err
	}
	return m, true, nil
}

// commit writes one entry's files. Only the goroutine holding the
// pending[addr] claim runs it for a given address.
func (r *Registry) commit(addr string, recs []trace.Record, format trace.Format) (Manifest, error) {
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, trace.FormatGZTR, recs); err != nil {
		return Manifest{}, fmt.Errorf("traceset: encoding records: %w", err)
	}
	m := Manifest{
		Address:      addr,
		Records:      len(recs),
		SourceFormat: format,
		IngestedAt:   time.Now().UTC(),
		StoredBytes:  int64(buf.Len()),
		Footprint:    workload.AnalyzeFootprints(trace.RecSlice(recs)),
	}
	manifest, err := json.MarshalIndent(m, "", "\t")
	if err != nil {
		return Manifest{}, fmt.Errorf("traceset: encoding manifest: %w", err)
	}
	// Records and columnar sidecar first, manifest last: the manifest's
	// existence is the commit point (Open skips manifests whose record
	// stream is missing), so a crash between the writes leaves at worst
	// orphaned data files that the next ingest of the same trace
	// overwrites in place.
	if err := engine.WriteFileAtomic(r.dataPath(addr), buf.Bytes()); err != nil {
		return Manifest{}, fmt.Errorf("traceset: writing records: %w", err)
	}
	if err := engine.WriteFileAtomic(r.colsPath(addr), trace.EncodeColumnar(recs)); err != nil {
		os.Remove(r.dataPath(addr))
		return Manifest{}, fmt.Errorf("traceset: writing columnar slab: %w", err)
	}
	if err := engine.WriteFileAtomic(r.manifestPath(addr), manifest); err != nil {
		os.Remove(r.dataPath(addr))
		os.Remove(r.colsPath(addr))
		return Manifest{}, fmt.Errorf("traceset: writing manifest: %w", err)
	}
	return m, nil
}

// List returns every entry's manifest, ordered by ingest time then
// address (a stable display order).
func (r *Registry) List() []Manifest {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Manifest, 0, len(r.index))
	for _, m := range r.index {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].IngestedAt.Equal(out[j].IngestedAt) {
			return out[i].IngestedAt.Before(out[j].IngestedAt)
		}
		return out[i].Address < out[j].Address
	})
	return out
}

// Len returns the number of registry entries.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.index)
}

// Get returns the manifest at an address.
func (r *Registry) Get(addr string) (Manifest, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.index[addr]
	return m, ok
}

// Records loads up to n records of the entry at addr (n <= 0 loads all).
func (r *Registry) Records(addr string, n int) ([]trace.Record, error) {
	if _, ok := r.Get(addr); !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, addr)
	}
	f, err := os.Open(r.dataPath(addr))
	if err != nil {
		return nil, fmt.Errorf("traceset: opening records for %s: %w", addr, err)
	}
	defer f.Close()
	fr, err := trace.NewFileReader(f)
	if err != nil {
		return nil, fmt.Errorf("traceset: records for %s: %w", addr, err)
	}
	recs, err := trace.Collect(fr, n)
	if err != nil {
		return nil, fmt.Errorf("traceset: records for %s: %w", addr, err)
	}
	return recs, nil
}

// OpenData returns the entry's raw normalized GZTR stream, for export.
func (r *Registry) OpenData(addr string) (io.ReadCloser, error) {
	if _, ok := r.Get(addr); !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, addr)
	}
	f, err := os.Open(r.dataPath(addr))
	if err != nil {
		return nil, fmt.Errorf("traceset: opening records for %s: %w", addr, err)
	}
	return f, nil
}

// Delete removes the entry at addr — manifest first (un-committing the
// entry for any concurrent Open), then the record stream — and drops the
// trace's materialized slabs from the process-wide cache so the name
// stops resolving immediately. In-use protection is the caller's job
// (the HTTP layer refuses to delete traces referenced by live work); the
// registry itself is mechanical.
func (r *Registry) Delete(addr string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.index[addr]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, addr)
	}
	if err := os.Remove(r.manifestPath(addr)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("traceset: deleting %s: %w", addr, err)
	}
	if err := os.Remove(r.dataPath(addr)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("traceset: deleting %s: %w", addr, err)
	}
	// The columnar sidecar is derived data: a failed removal must not
	// resurrect a deleted entry (mapped slabs already handed out stay
	// valid regardless — the mapping outlives the directory entry).
	os.Remove(r.colsPath(addr)) //nolint:errcheck
	delete(r.index, addr)
	workload.InvalidateTrace(workload.IngestedName(addr))
	return nil
}

// Registry is a workload.Source: ingested traces resolve through
// workload.Exists / MaterializeRecords under their "ingested:<address>"
// names.
var _ workload.Source = (*Registry)(nil)

// Exists implements workload.Source.
func (r *Registry) Exists(name string) bool {
	addr, ok := workload.IngestedDigest(name)
	if !ok {
		return false
	}
	_, ok = r.Get(addr)
	return ok
}

// Load implements workload.Source.
func (r *Registry) Load(name string, n int) ([]trace.Record, error) {
	addr, ok := workload.IngestedDigest(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q is not an ingested trace name", ErrNotFound, name)
	}
	return r.Records(addr, n)
}

// Registry is also a workload.SlabSource: MaterializeRecords serves
// ingested traces as mmap-backed columnar slabs where possible.
var _ workload.SlabSource = (*Registry)(nil)

// LoadSlab implements workload.SlabSource: it maps the entry's columnar
// sidecar read-only and returns an in-place view of up to n records.
// Entries without a (valid) sidecar — ingested before the columnar format
// existed and not yet migrated — and platforms without mmap fall back to
// the GZTR decode copied into heap planes; the caller cannot tell except
// by footprint.
func (r *Registry) LoadSlab(name string, n int) (*trace.Columns, error) {
	addr, ok := workload.IngestedDigest(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q is not an ingested trace name", ErrNotFound, name)
	}
	m, ok := r.Get(addr)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, addr)
	}
	if cols, err := trace.MapColumnar(r.colsPath(addr)); err == nil && cols.Len() == m.Records {
		return cols.Prefix(n), nil
	}
	recs, err := r.Records(addr, n)
	if err != nil {
		return nil, err
	}
	return trace.NewColumns(recs), nil
}

// ColumnarInfo describes an entry's columnar sidecar for inspection
// tooling: whether the file exists, whether its size is consistent with
// the manifest's record count, and the per-plane byte extents.
type ColumnarInfo struct {
	Present bool  `json:"present"`
	Valid   bool  `json:"valid"`
	Bytes   int64 `json:"bytes"`
	// Plane sizes in bytes (fixed-width: 8/8/2/1 per record).
	PCBytes     int64 `json:"pc_bytes"`
	AddrBytes   int64 `json:"addr_bytes"`
	NonMemBytes int64 `json:"nonmem_bytes"`
	KindBytes   int64 `json:"kind_bytes"`
}

// Columnar reports the state of the entry's columnar sidecar.
func (r *Registry) Columnar(addr string) (ColumnarInfo, error) {
	m, ok := r.Get(addr)
	if !ok {
		return ColumnarInfo{}, fmt.Errorf("%w: %s", ErrNotFound, addr)
	}
	st, err := os.Stat(r.colsPath(addr))
	if err != nil {
		return ColumnarInfo{}, nil //nolint:nilerr // absent sidecar is a valid state, not an error
	}
	n := int64(m.Records)
	return ColumnarInfo{
		Present:     true,
		Valid:       st.Size() == trace.ColumnarSize(m.Records),
		Bytes:       st.Size(),
		PCBytes:     8 * n,
		AddrBytes:   8 * n,
		NonMemBytes: 2 * n,
		KindBytes:   n,
	}, nil
}

// BuildColumnar backfills the entry's columnar sidecar from its GZTR
// stream — the migration path for entries ingested before the columnar
// format existed. It reports whether a sidecar was written; entries whose
// sidecar is already present and size-consistent are left untouched.
func (r *Registry) BuildColumnar(addr string) (bool, error) {
	info, err := r.Columnar(addr)
	if err != nil {
		return false, err
	}
	if info.Present && info.Valid {
		return false, nil
	}
	recs, err := r.Records(addr, 0)
	if err != nil {
		return false, err
	}
	if err := engine.WriteFileAtomic(r.colsPath(addr), trace.EncodeColumnar(recs)); err != nil {
		return false, fmt.Errorf("traceset: writing columnar slab: %w", err)
	}
	return true, nil
}

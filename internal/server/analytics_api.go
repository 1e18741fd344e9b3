// Analytics API: the comparison matrices the paper's §V tables and
// Fig 16 curves report, served as cacheable reads. The product of the
// reproduction is comparisons — speedup/coverage/accuracy across
// prefetchers × workloads × override points — yet /simulate and /sweep
// return raw per-job rows and always cost simulation time. The analytics
// endpoints aggregate *completed* results only: they probe the engine's
// memo and persisted store and never simulate, so they are safe to hammer
// from dashboards and CDNs.
//
//	GET /analytics/matrix   full metric matrix (+ sensitivity with an axis)
//	GET /analytics/speedup  speedup-only matrix + per-prefetcher geomeans
//
// Identity and caching: the requested grid compiles to the same engine
// jobs a POST /sweep of the same shape would run, and the *result set*
// is content-addressed as the SHA-256 over the sorted set of those jobs'
// content addresses — permutation-invariant by construction (listing
// prefetchers or traces in a different order names the same result set).
// The ETag is derived from the result-set address plus the sorted subset
// of addresses whose results exist, so it changes exactly when new
// underlying results complete (or are GC'd) and a matching If-None-Match
// answers 304 without reading a single record: the view's
// engine.CompletionProbe checks the memo once and stats one directory
// per store shard that holds a pending cell, and a cell's record only
// when its shard changed. Each URL's compiled grid
// and assembled document are cached in-process per (endpoint, raw query);
// the cache holds a ref on every address backing a cached document, which
// result-store GC honors.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/engine"
	"repro/internal/prefetchers"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AnalyticsSchemaVersion stamps the analytics document shape, like
// StatsSchemaVersion stamps /stats.
//
// v1: first version (PR 6).
const AnalyticsSchemaVersion = 1

// AnalyticsPoint identifies one override point of an analytics grid: the
// swept knob at one value, or the base overrides point when no axis was
// requested (Param empty).
type AnalyticsPoint struct {
	Param string  `json:"param,omitempty"`
	Value float64 `json:"value,omitempty"`
}

// AnalyticsCell is one (point, trace, prefetcher) cell of the matrix. A
// cell is Complete when both its job's result and its baseline's exist;
// metric fields are meaningful only then. Address and BaselineAddress
// are the engine content addresses the cell aggregates — the identities
// a client can correlate with /sweep rows, job results and store entries.
type AnalyticsCell struct {
	Trace           string  `json:"trace"`
	Prefetcher      string  `json:"prefetcher"`
	Param           string  `json:"param,omitempty"`
	Value           float64 `json:"value,omitempty"`
	Address         string  `json:"address"`
	BaselineAddress string  `json:"baseline_address"`
	Complete        bool    `json:"complete"`
	Speedup         float64 `json:"speedup,omitempty"`
	IPC             float64 `json:"ipc,omitempty"`
	Accuracy        float64 `json:"accuracy,omitempty"`
	Coverage        float64 `json:"coverage,omitempty"`
	LateFraction    float64 `json:"late_fraction,omitempty"`
	L1MPKI          float64 `json:"l1_mpki,omitempty"`
	LLCMPKI         float64 `json:"llc_mpki,omitempty"`
}

// MatrixResponse is the GET /analytics/matrix document: every cell of
// the requested grid with the paper's §IV-A3 metrics where complete,
// plus the aggregates — per-prefetcher geomean speedups over complete
// cells (no axis) or Fig 16-style sensitivity points (with an axis).
type MatrixResponse struct {
	SchemaVersion  int                `json:"schema_version"`
	ResultSet      string             `json:"result_set"`
	ETag           string             `json:"etag"`
	Traces         []string           `json:"traces"`
	Prefetchers    []string           `json:"prefetchers"`
	Points         []AnalyticsPoint   `json:"points"`
	CellsTotal     int                `json:"cells_total"`
	CellsComplete  int                `json:"cells_complete"`
	Cells          []AnalyticsCell    `json:"cells"`
	GeomeanSpeedup map[string]float64 `json:"geomean_speedup,omitempty"`
	Sensitivity    []SensitivityPoint `json:"sensitivity,omitempty"`
}

// SpeedupResponse is the GET /analytics/speedup document: the speedup
// matrix alone (prefetcher → trace → speedup, complete cells only) with
// per-prefetcher geomeans — the numbers the paper's Fig 6 bars plot.
type SpeedupResponse struct {
	SchemaVersion  int                           `json:"schema_version"`
	ResultSet      string                        `json:"result_set"`
	ETag           string                        `json:"etag"`
	Traces         []string                      `json:"traces"`
	Prefetchers    []string                      `json:"prefetchers"`
	CellsTotal     int                           `json:"cells_total"`
	CellsComplete  int                           `json:"cells_complete"`
	Speedup        map[string]map[string]float64 `json:"speedup"`
	GeomeanSpeedup map[string]float64            `json:"geomean_speedup"`
}

// checkQueryParams rejects a query parameter outside allowed, naming the
// sorted-first one so one URL always answers the same 400. The analytics
// and timeline reads are this strict, mirroring the strict JSON decoding
// of the POST endpoints: a typo'd parameter must not silently answer for
// a query the client did not ask for.
func checkQueryParams(q url.Values, allowed ...string) error {
	for _, k := range slices.Sorted(maps.Keys(q)) {
		if !slices.Contains(allowed, k) {
			return fmt.Errorf("unknown query parameter %q (want %s)", k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// parseAnalyticsQuery maps GET query parameters onto the same SweepRequest
// shape POST /sweep validates, so both faces of the grid share one
// compiler. List-valued parameters are comma-separated; prefetchers
// defaults to the paper's full evaluated roster.
func parseAnalyticsQuery(q url.Values, allowAxis bool) (SweepRequest, error) {
	if err := checkQueryParams(q, "suite", "traces", "prefetchers", "param", "values"); err != nil {
		return SweepRequest{}, err
	}
	req := SweepRequest{
		Suite:       q.Get("suite"),
		Traces:      splitList(q.Get("traces")),
		Prefetchers: splitList(q.Get("prefetchers")),
	}
	if len(req.Prefetchers) == 0 {
		req.Prefetchers = prefetchers.EvaluatedNames()
	}
	param, values := q.Get("param"), q.Get("values")
	if (param == "") != (values == "") {
		return SweepRequest{}, fmt.Errorf("param and values must be given together")
	}
	if param != "" {
		if !allowAxis {
			return SweepRequest{}, fmt.Errorf("this endpoint does not take a sensitivity axis; use /analytics/matrix")
		}
		axis := &SweepAxis{Param: param}
		for _, s := range splitList(values) {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return SweepRequest{}, fmt.Errorf("values: %q is not a number", s)
			}
			axis.Values = append(axis.Values, v)
		}
		req.Axis = axis
	}
	return req, nil
}

// splitList splits a comma-separated query value, dropping empty items
// (so a trailing comma is not an empty name).
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// resultSetAddress content-addresses a grid: the SHA-256 over the sorted
// deduped set of its engine-job addresses. Sorting makes the address a
// function of the *set* — two requests spelling the same grid in any
// order (or overlapping through shared baselines) name the same result
// set.
func resultSetAddress(addrs []string) string {
	h := sha256.New()
	io.WriteString(h, "analytics/v1\n")
	for _, a := range addrs {
		io.WriteString(h, a)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// analyticsView is one compiled analytics request: the grid, the per-job
// content addresses (aligned with grid.jobs), the sorted unique address
// set with its content address, each unique address's canonical job key
// (aligned with unique), and the completion probe over those cells. A
// view depends only on the query and the engine, so it is compiled once
// per URL and cached with the document: revalidating from it encodes
// and hashes no job again.
type analyticsView struct {
	grid      *sweepGrid
	addrs     []string
	unique    []string // sorted, deduped
	keys      []string // canonical job keys, aligned with unique
	resultSet string
	probe     *engine.CompletionProbe // indices into unique
}

func compileAnalytics(eng *engine.Engine, q url.Values, allowAxis bool) (*analyticsView, error) {
	scale := eng.Scale()
	req, err := parseAnalyticsQuery(q, allowAxis)
	if err != nil {
		return nil, err
	}
	grid, err := compileSweepGrid(scale, req)
	if err != nil {
		return nil, err
	}
	v := &analyticsView{grid: grid, addrs: make([]string, len(grid.jobs))}
	keyOf := make(map[string]string, len(grid.jobs))
	for i, j := range grid.jobs {
		key := j.CanonicalJSON(scale)
		v.addrs[i] = engine.AddressOfKey(key)
		if _, ok := keyOf[v.addrs[i]]; !ok {
			keyOf[v.addrs[i]] = key
			v.unique = append(v.unique, v.addrs[i])
		}
	}
	sort.Strings(v.unique)
	v.keys = make([]string, len(v.unique))
	for i, addr := range v.unique {
		v.keys[i] = keyOf[addr]
	}
	v.resultSet = resultSetAddress(v.unique)
	v.probe = eng.CompletionProbe(v.keys, v.unique)
	return v, nil
}

// viewFor returns the compiled view for an analytics URL: the cached one,
// re-checked for what can change after compilation (a trace deleted from
// the registry answers 400 as on a cold server), or a fresh compile,
// cached on success.
func (s *Server) viewFor(key string, r *http.Request, allowAxis bool) (*analyticsView, error) {
	if v := s.analytics.view(key); v != nil {
		for _, tr := range v.grid.traces {
			if !workload.Exists(tr) {
				return nil, fmt.Errorf("unknown trace %q", tr)
			}
		}
		return v, nil
	}
	v, err := compileAnalytics(s.eng, r.URL.Query(), allowAxis)
	if err != nil {
		return nil, err
	}
	s.analytics.put(key, v, "", nil, nil)
	return v, nil
}

// etag derives the strong ETag: a hash of the result-set address plus the
// completed subset. For a fixed URL the result set is fixed, so the ETag
// changes iff the set of completed underlying results changes.
func (v *analyticsView) etag(done []int) string {
	h := sha256.New()
	io.WriteString(h, "analytics-etag/v1\n")
	io.WriteString(h, v.resultSet)
	io.WriteString(h, "\n")
	for _, i := range done {
		io.WriteString(h, v.unique[i])
		io.WriteString(h, "\n")
	}
	return `"` + hex.EncodeToString(h.Sum(nil)) + `"`
}

// etagMatches implements the If-None-Match comparison: a comma-separated
// list of entity tags, or "*". Weak-validator prefixes are compared
// weakly (W/"x" matches "x") — fine for a cache whose tags are strong.
func etagMatches(header, etag string) bool {
	for _, tok := range strings.Split(header, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "*" || tok == etag || strings.TrimPrefix(tok, "W/") == etag {
			return true
		}
	}
	return false
}

// analyticsCache holds one entry per (endpoint, raw query): the URL's
// compiled view and the last document assembled for it, invalidated by
// ETag — a cached document is served only while the completed-set hash it
// was built from still matches. Entries are capped and evicted
// least-recently-used; the zero value is ready to use.
type analyticsCache struct {
	mu      sync.Mutex
	entries map[string]*analyticsEntry
	hits    uint64
	misses  uint64
	clock   uint64
}

type analyticsEntry struct {
	view    *analyticsView
	etag    string // "" until a document is built
	body    []byte
	refs    []string // completed addresses backing body — GC ref source
	lastUse uint64
}

// maxAnalyticsEntries bounds the cache. Documents are a few KB to a few
// hundred KB; 128 of them is dashboard-plenty and memory-cheap.
const maxAnalyticsEntries = 128

// view returns the compiled view cached for key, or nil.
func (c *analyticsCache) view(key string) *analyticsView {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return nil
	}
	c.clock++
	e.lastUse = c.clock
	return e.view
}

// get returns the cached document for key if it was built from exactly
// the given etag.
func (c *analyticsCache) get(key, etag string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || e.etag != etag {
		c.misses++
		return nil, false
	}
	c.hits++
	c.clock++
	e.lastUse = c.clock
	return e.body, true
}

func (c *analyticsCache) put(key string, v *analyticsView, etag string, body []byte, refs []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries == nil {
		c.entries = make(map[string]*analyticsEntry)
	}
	c.clock++
	c.entries[key] = &analyticsEntry{view: v, etag: etag, body: body, refs: refs, lastUse: c.clock}
	for len(c.entries) > maxAnalyticsEntries {
		var (
			victimKey string
			victim    *analyticsEntry
		)
		for k, e := range c.entries {
			if victim == nil || e.lastUse < victim.lastUse {
				victimKey, victim = k, e
			}
		}
		delete(c.entries, victimKey)
	}
}

// liveAddresses returns the union of addresses backing cached documents —
// the analytics-side ref source for result-store GC. Collecting an entry
// a cached matrix was built from would be harmless for serving (the
// document is already assembled) but would silently flip its cells to
// incomplete on the next rebuild; holding the ref keeps a dashboard's
// view stable until the cache entry itself ages out.
func (c *analyticsCache) liveAddresses() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool)
	for _, e := range c.entries {
		for _, a := range e.refs {
			out[a] = true
		}
	}
	return out
}

// AnalyticsCacheStats is the analytics document cache's counter
// snapshot, the /stats "analytics" block.
type AnalyticsCacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
}

func (c *analyticsCache) counters() AnalyticsCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return AnalyticsCacheStats{Entries: len(c.entries), Hits: c.hits, Misses: c.misses}
}

// analyticsAssemble builds one endpoint's document from the view and the
// completed results.
type analyticsAssemble func(v *analyticsView, etag string, results map[string]sim.Result) any

func (s *Server) handleAnalyticsMatrix(w http.ResponseWriter, r *http.Request) {
	s.serveAnalytics(w, r, true, "matrix", buildMatrixDoc)
}

func (s *Server) handleAnalyticsSpeedup(w http.ResponseWriter, r *http.Request) {
	s.serveAnalytics(w, r, false, "speedup", buildSpeedupDoc)
}

func (s *Server) serveAnalytics(w http.ResponseWriter, r *http.Request, allowAxis bool, endpoint string, build analyticsAssemble) {
	key := endpoint + "\x00" + r.URL.RawQuery
	v, err := s.viewFor(key, r, allowAxis)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	done := v.probe.Completed()
	etag := v.etag(done)
	w.Header().Set("ETag", etag)
	// Pure read, revalidate-cheaply: intermediaries may cache but must
	// ask again, and the ask is a 304 from one memo pass and a stat per
	// pending store shard most of the time.
	w.Header().Set("Cache-Control", "public, no-cache")
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatches(inm, etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	if body, ok := s.analytics.get(key, etag); ok {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body) //nolint:errcheck // client disconnects are routine
		return
	}
	// Rebuild: load the completed results for real. A probe that answered
	// true but fails to Load (a store entry corrupted between the stat
	// and the read) drops out of the completed set here; the document
	// stays coherent with itself, merely one revalidation staler than the
	// ETag, and the next request re-derives both.
	results := make(map[string]sim.Result, len(done))
	refs := make([]string, 0, len(done))
	for _, i := range done {
		if res, ok := s.eng.Lookup(v.keys[i]); ok {
			results[v.unique[i]] = res
			refs = append(refs, v.unique[i])
		}
	}
	doc := build(v, etag, results)
	body, err := json.Marshal(doc)
	if err != nil { // analytics documents marshal by construction
		httpError(w, http.StatusInternalServerError, "encoding analytics document: %v", err)
		return
	}
	s.analytics.put(key, v, etag, body, refs)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck // client disconnects are routine
}

// buildMatrixDoc assembles the full matrix document, aggregating only
// over complete cells (both the prefetcher's and the baseline's results
// available).
func buildMatrixDoc(v *analyticsView, etag string, results map[string]sim.Result) any {
	g := v.grid
	resp := MatrixResponse{
		SchemaVersion: AnalyticsSchemaVersion,
		ResultSet:     v.resultSet,
		ETag:          etag,
		Traces:        g.traces,
		Prefetchers:   g.pfs,
		CellsTotal:    len(g.points) * len(g.traces) * len(g.pfs),
	}
	for vi := range g.points {
		pt := AnalyticsPoint{}
		if g.axis != nil {
			pt = AnalyticsPoint{Param: g.axis.Param, Value: g.axisValues[vi]}
		}
		resp.Points = append(resp.Points, pt)
		perPF := make(map[string][]float64)
		for ti, tr := range g.traces {
			baseAddr := v.addrs[g.index(vi, ti, -1)]
			base, baseOK := results[baseAddr]
			for pi, pf := range g.pfs {
				i := g.index(vi, ti, pi)
				cell := AnalyticsCell{
					Trace: tr, Prefetcher: pf,
					Param: pt.Param, Value: pt.Value,
					Address: v.addrs[i], BaselineAddress: baseAddr,
				}
				if res, ok := results[v.addrs[i]]; ok && baseOK {
					cell.Complete = true
					cell.Speedup = engine.Speedup(res, base)
					cell.IPC = res.MeanIPC()
					cell.Accuracy = res.Accuracy()
					cell.Coverage = res.Coverage()
					cell.LateFraction = res.LateFraction()
					cell.L1MPKI = res.L1MPKI()
					cell.LLCMPKI = res.LLCMPKI()
					resp.CellsComplete++
					perPF[pf] = append(perPF[pf], cell.Speedup)
				}
				resp.Cells = append(resp.Cells, cell)
			}
		}
		if g.axis == nil {
			resp.GeomeanSpeedup = make(map[string]float64)
			for pf, vals := range perPF {
				resp.GeomeanSpeedup[pf] = stats.Geomean(vals)
			}
			continue
		}
		for _, pf := range g.pfs {
			if vals := perPF[pf]; len(vals) > 0 {
				resp.Sensitivity = append(resp.Sensitivity, SensitivityPoint{
					Param:          g.axis.Param,
					Value:          g.axisValues[vi],
					Prefetcher:     pf,
					GeomeanSpeedup: stats.Geomean(vals),
				})
			}
		}
	}
	return resp
}

// buildSpeedupDoc assembles the condensed speedup-only document.
func buildSpeedupDoc(v *analyticsView, etag string, results map[string]sim.Result) any {
	g := v.grid
	resp := SpeedupResponse{
		SchemaVersion:  AnalyticsSchemaVersion,
		ResultSet:      v.resultSet,
		ETag:           etag,
		Traces:         g.traces,
		Prefetchers:    g.pfs,
		CellsTotal:     len(g.traces) * len(g.pfs),
		Speedup:        make(map[string]map[string]float64),
		GeomeanSpeedup: make(map[string]float64),
	}
	perPF := make(map[string][]float64)
	for ti, tr := range g.traces {
		base, baseOK := results[v.addrs[g.index(0, ti, -1)]]
		for pi, pf := range g.pfs {
			res, ok := results[v.addrs[g.index(0, ti, pi)]]
			if !ok || !baseOK {
				continue
			}
			if resp.Speedup[pf] == nil {
				resp.Speedup[pf] = make(map[string]float64)
			}
			sp := engine.Speedup(res, base)
			resp.Speedup[pf][tr] = sp
			perPF[pf] = append(perPF[pf], sp)
			resp.CellsComplete++
		}
	}
	for pf, vals := range perPF {
		resp.GeomeanSpeedup[pf] = stats.Geomean(vals)
	}
	return resp
}

package workload

import (
	"strings"
	"sync"

	"repro/internal/trace"
)

// This file is the bridge between the synthetic catalogue and external
// trace supplies. A Source resolves trace names the catalogue does not
// know — most importantly the traceset registry's ingested real traces,
// referenced as "ingested:<content-address>" — so the engine, sweeps and
// the HTTP API accept registry names exactly like catalogue names: Exists
// validates them, MaterializeRecords caches their slabs, and TraceDigest
// folds their content identity into engine cache keys.

// IngestedPrefix namespaces registry trace names: "ingested:<address>",
// where <address> is the trace's content address (the SHA-256 of its
// normalized record stream). The digest riding inside the name is what
// keeps engine result-store keys sound without the engine ever touching
// the registry.
const IngestedPrefix = "ingested:"

// IngestedName returns the workload name of an ingested trace address.
func IngestedName(address string) string { return IngestedPrefix + address }

// IngestedDigest parses an ingested trace name into its content digest.
// It is a pure string operation — no registry lookup — so content
// addressing stays deterministic even where no Source is registered.
func IngestedDigest(name string) (string, bool) {
	if rest, ok := strings.CutPrefix(name, IngestedPrefix); ok && rest != "" {
		return rest, true
	}
	return "", false
}

// TraceDigest returns the content digest a trace name contributes to
// engine cache keys, and whether it has one. Catalogue names return
// false: the name alone regenerates the records bit for bit, so the name
// is already the identity. Ingested names carry their record-stream
// digest.
func TraceDigest(name string) (string, bool) {
	if _, ok := registry[name]; ok {
		return "", false
	}
	return IngestedDigest(name)
}

// Source resolves trace names outside the synthetic catalogue. It must be
// safe for concurrent use.
type Source interface {
	// Exists reports whether the source can load the named trace.
	Exists(name string) bool
	// Load returns up to n records of the named trace (n <= 0 loads all).
	// Traces shorter than n return every record they have; the simulator
	// loops traces, so a short slab is still a complete workload.
	Load(name string, n int) ([]trace.Record, error)
}

// SlabSource optionally extends Source with direct slab access: LoadSlab
// returns up to n records as a columnar slab, preferring a zero-copy
// mapped view (an mmap'd columnar sidecar) over a heap decode when one is
// available. Sources that cannot do better than Load simply don't
// implement it; MaterializeRecords copies Load's records into heap
// planes instead.
type SlabSource interface {
	Source
	LoadSlab(name string, n int) (*trace.Columns, error)
}

var sourceReg struct {
	mu      sync.RWMutex
	sources []Source
}

// RegisterSource plugs a Source into the process-wide name resolution used
// by Exists and MaterializeRecords. Sources are consulted in registration
// order, after the synthetic catalogue.
func RegisterSource(s Source) {
	sourceReg.mu.Lock()
	defer sourceReg.mu.Unlock()
	sourceReg.sources = append(sourceReg.sources, s)
}

// ResetSources removes every registered source. For tests.
func ResetSources() {
	sourceReg.mu.Lock()
	defer sourceReg.mu.Unlock()
	sourceReg.sources = nil
}

// sourceFor returns the first registered source that can load name.
func sourceFor(name string) Source {
	sourceReg.mu.RLock()
	defer sourceReg.mu.RUnlock()
	for _, s := range sourceReg.sources {
		if s.Exists(name) {
			return s
		}
	}
	return nil
}

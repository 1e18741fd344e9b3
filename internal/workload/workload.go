// Package workload synthesizes the instruction traces the evaluation runs
// on. The paper uses 201 captured traces from SPEC06, SPEC17, Ligra,
// PARSEC and CloudSuite (plus GAP and QMM supplements); those binary
// traces are not redistributable, so this package generates deterministic
// synthetic equivalents that reproduce the pattern *structure* each suite
// is cited for:
//
//   - dense spatial streaming (bwaves/lbm/leslie3d, Ligra init phases),
//   - recurring spatial footprints with internal temporal order —
//     including trigger-offset-ambiguous families (the fotonik3d example
//     of Fig 2 and the CloudSuite behaviour of Fig 1),
//   - interleaved streaming + irregular access (Ligra/GAP compute phases,
//     the §III-C motivation for the two-stage streaming controller),
//   - pointer chasing with little spatial structure (mcf, canneal),
//   - low-data-MPKI server code (QMM srv).
//
// Every named workload is generated from its name alone (the name seeds
// the PRNG), so experiments are reproducible bit for bit.
package workload

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/trace"
)

// Info identifies one catalogue entry.
type Info struct {
	// Name is the trace name, mirroring the paper's trace naming
	// (e.g. "bwaves_s-2609", "PageRank-61", "cassandra-p0c0").
	Name string
	// Suite is one of "spec06", "spec17", "ligra", "parsec", "cloud",
	// "gap", "qmm.srv", "qmm.clt".
	Suite string
}

// Generate produces the first n records of the named workload. It returns
// an error for unknown names.
func Generate(name string, n int) ([]trace.Record, error) {
	spec, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown trace %q", name)
	}
	g := newGen(name, spec)
	return g.records(n), nil
}

// MustGenerate is Generate for known-good names; it panics on error.
func MustGenerate(name string, n int) []trace.Record {
	recs, err := Generate(name, n)
	if err != nil {
		panic(err)
	}
	return recs
}

// NewReader returns a looping trace reader over the first n generated
// records of the named workload, ready to hand to sim.CoreSpec.
func NewReader(name string, n int) (*trace.Looping, error) {
	recs, err := Generate(name, n)
	if err != nil {
		return nil, err
	}
	return trace.NewLooping(trace.NewSliceReader(recs)), nil
}

// Catalogue lists every named workload, ordered by suite then name.
func Catalogue() []Info {
	out := make([]Info, 0, len(registry))
	for name, spec := range registry {
		out = append(out, Info{Name: name, Suite: spec.suite})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Suite returns the catalogue entries of one suite.
func Suite(suite string) []Info {
	var out []Info
	for _, info := range Catalogue() {
		if info.Suite == suite {
			out = append(out, info)
		}
	}
	return out
}

// Suites returns all suite identifiers in display order.
func Suites() []string {
	return []string{"spec06", "spec17", "ligra", "parsec", "cloud", "gap", "qmm.srv", "qmm.clt"}
}

// Exists reports whether a trace name resolves: in the synthetic
// catalogue, or through a registered Source (e.g. an ingested real trace).
func Exists(name string) bool {
	if _, ok := registry[name]; ok {
		return true
	}
	return sourceFor(name) != nil
}

// produce yields the first n records of a trace name from wherever it
// resolves: the synthetic catalogue generates them, registered Sources
// load them. It is the supply behind MaterializeRecords.
func produce(name string, n int) ([]trace.Record, error) {
	if _, ok := registry[name]; ok {
		return Generate(name, n)
	}
	if s := sourceFor(name); s != nil {
		return s.Load(name, n)
	}
	return nil, fmt.Errorf("workload: unknown trace %q", name)
}

func newGen(name string, spec profile) *gen {
	return &gen{
		name: name,
		spec: spec,
		r:    rng.NewFromString(name),
	}
}

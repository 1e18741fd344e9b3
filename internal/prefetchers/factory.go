package prefetchers

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/prefetch"
)

// New constructs a prefetcher by its report name — the spelling used by
// `gazesim -prefetcher`, the gazeserve API, and the harness job specs.
// Fresh state is returned on every call: prefetchers are stateful and
// must not be shared between simulations.
//
// Baselines (the paper's §IV comparison set):
//
//	none       No prefetching ("" is accepted too); the speedup baseline.
//	IP-stride  Classic per-PC stride detector with confidence counters.
//	BOP        Best-Offset Prefetching (Michaud): scores a fixed offset
//	           list by recent-request hits, issues the winner.
//	SPP-PPF    Signature Path Prefetcher with the Perceptron Prefetch
//	           Filter gating its lookahead proposals.
//	IPCP-L1    Instruction Pointer Classifier-based Prefetching: per-IP
//	           class (constant stride / complex stride / next-line) at L1.
//	vBerti     Berti variant: per-IP best local delta, learned from
//	           timely fills (the paper's strongest fine-grained baseline).
//	SMS        Spatial Memory Streaming: PC+offset-indexed region
//	           footprint bit-vectors replayed on region re-entry.
//	Bingo      Footprints indexed by long events (PC+address) with
//	           fallback to shorter ones at prediction time.
//	DSPatch    Dual bit-vector spatial patterns (coverage- and
//	           accuracy-biased) selected by DRAM-bandwidth headroom.
//	PMP        Page-level Metadata Prefetching: offset-pattern merging
//	           with degree modulation (the coarse-grained contrast case).
//
// Gaze and its ablations (§III / Figs 9, 10, 17, 18):
//
//	Gaze         The paper's proposal at default geometry (2-access
//	             characterization + streaming module + prefetch buffer).
//	Gaze-PHT     Gaze's PHT path only (no streaming module).
//	Offset       Trigger-offset-indexed PHT only (the Fig 9 strawman).
//	PHT4SS       Streaming patterns served by the PHT path (Fig 10).
//	SM4SS        Streaming module handling streams alone (Fig 10).
//	Gaze-<n>acc  n ∈ 1..4: match-length sensitivity (Fig 4).
//	Gaze-PHT<n>  PHT resized to n entries (Fig 17b), e.g. Gaze-PHT256.
//	vGaze-<n>KB  Gaze over n-kilobyte regions (Fig 18 huge-page mode),
//	             e.g. vGaze-8KB; vGaze-<n>B for arbitrary byte sizes.
func New(name string) (prefetch.Prefetcher, error) {
	switch name {
	case "none", "":
		return prefetch.Nil{}, nil
	case "IP-stride":
		return NewIPStride(0), nil
	case "BOP":
		return NewBOP(), nil
	case "SPP-PPF":
		return NewSPPPPF(), nil
	case "IPCP-L1", "IPCP":
		return NewIPCP(), nil
	case "vBerti", "Berti":
		return NewBerti(), nil
	case "SMS":
		return NewSMS(DefaultSMSConfig()), nil
	case "Bingo":
		return NewBingo(DefaultBingoConfig()), nil
	case "DSPatch":
		return NewDSPatch(), nil
	case "PMP":
		return NewPMP(), nil
	case "Gaze":
		return core.NewDefault(), nil
	case "Gaze-PHT":
		return core.NewGazePHT(), nil
	case "Offset", "Gaze-1acc":
		return core.NewGazeN(1), nil
	case "PHT4SS":
		return core.NewPHT4SS(), nil
	case "SM4SS":
		return core.NewSM4SS(), nil
	case "Gaze-2acc":
		return core.NewGazeN(2), nil
	case "Gaze-3acc":
		return core.NewGazeN(3), nil
	case "Gaze-4acc":
		return core.NewGazeN(4), nil
	}
	// Strict parsing (no Sscanf: it ignores trailing junk, and every
	// distinct accepted spelling becomes a distinct cache key, so
	// "Gaze-PHT256a", "Gaze-PHT256b", ... would each re-simulate and
	// persist the identical configuration).
	if rest, ok := strings.CutPrefix(name, "vGaze-"); ok {
		if num, ok := strings.CutSuffix(rest, "KB"); ok {
			kb, ok := parseParam(num)
			if !ok {
				return nil, fmt.Errorf("prefetchers: unknown prefetcher %q", name)
			}
			// Bound before multiplying: a huge kb would overflow kb*1024
			// right past the limit check.
			if kb > maxRegionBytes/1024 {
				return nil, fmt.Errorf("prefetchers: %s exceeds the %dKB region limit", name, maxRegionBytes/1024)
			}
			return newVGaze(name, kb*1024)
		}
		if num, ok := strings.CutSuffix(rest, "B"); ok {
			bytes, ok := parseParam(num)
			if !ok {
				return nil, fmt.Errorf("prefetchers: unknown prefetcher %q", name)
			}
			return newVGaze(name, bytes)
		}
	}
	if num, ok := strings.CutPrefix(name, "Gaze-PHT"); ok {
		entries, ok := parseParam(num)
		if !ok {
			return nil, fmt.Errorf("prefetchers: unknown prefetcher %q", name)
		}
		return newGazePHT(name, entries)
	}
	return nil, fmt.Errorf("prefetchers: unknown prefetcher %q", name)
}

// parseParam parses a positive integer in canonical form only: "08" and
// "+8" would otherwise mint cache keys distinct from "8" for identical
// configurations.
func parseParam(s string) (int, bool) {
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 || strconv.Itoa(v) != s {
		return 0, false
	}
	return v, true
}

// Parametric names accept arbitrary positive integers, and gazeserve
// validates untrusted request input by constructing prefetchers — so the
// parameters must be fully checked, with errors rather than panics,
// before any table is allocated. The magnitude caps sit well above the
// paper's sweeps (1024 PHT entries, 64KB regions) but low enough that no
// name can demand a pathological allocation; the structural constraints
// (power-of-two regions, way-divisible PHT sizes) are core.Config's own
// Validate rules, checked here on a throwaway config so core.New's panic
// path is never reached on user input.
const (
	maxRegionBytes = 2 << 20 // a 2MB huge page
	maxPHTEntries  = 1 << 16
)

func newVGaze(name string, regionBytes int) (prefetch.Prefetcher, error) {
	if regionBytes > maxRegionBytes {
		return nil, fmt.Errorf("prefetchers: %s exceeds the %dKB region limit", name, maxRegionBytes/1024)
	}
	cfg := core.DefaultConfig()
	cfg.RegionSize = regionBytes
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("prefetchers: %s: %w", name, err)
	}
	return core.NewVGaze(regionBytes), nil
}

func newGazePHT(name string, entries int) (prefetch.Prefetcher, error) {
	if entries > maxPHTEntries {
		return nil, fmt.Errorf("prefetchers: %s exceeds the %d-entry PHT limit", name, maxPHTEntries)
	}
	cfg := core.DefaultConfig()
	cfg.PHTEntries = entries
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("prefetchers: %s: %w", name, err)
	}
	return core.NewWithPHTEntries(entries), nil
}

// MustNew is New for known-good names.
func MustNew(name string) prefetch.Prefetcher {
	p, err := New(name)
	if err != nil {
		panic(err)
	}
	return p
}

// EvaluatedNames lists the nine prefetchers of the paper's main
// single-core comparison (Fig 6-8), in the figures' display order.
func EvaluatedNames() []string {
	return []string{
		"IP-stride", "SPP-PPF", "IPCP-L1", "vBerti",
		"SMS", "Bingo", "DSPatch", "PMP", "Gaze",
	}
}

// StorageBytes returns a prefetcher's metadata budget when it exposes one
// (the Table IV column); ok is false otherwise.
func StorageBytes(p prefetch.Prefetcher) (float64, bool) {
	type sizer interface{ StorageBytes() float64 }
	if s, ok := p.(sizer); ok {
		return s.StorageBytes(), true
	}
	if g, ok := p.(*core.Gaze); ok {
		return g.TotalStorageBytes(), true
	}
	return 0, false
}

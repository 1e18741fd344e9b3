package sim

import (
	"reflect"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/trace"
)

// telemetryRun executes one single-core run with the given sampling
// interval and returns both the result and the collected telemetry.
func telemetryRun(t *testing.T, interval uint64, pf prefetch.Prefetcher) (Result, *Telemetry) {
	t.Helper()
	cfg := smallCfg(1)
	cfg.TelemetryInterval = interval
	specs := []CoreSpec{{
		Trace:        trace.NewLooping(trace.NewSliceReader(streamTrace(8192, 9))),
		L1Prefetcher: pf,
	}}
	sys, err := New(cfg, specs)
	if err != nil {
		t.Fatal(err)
	}
	return sys.Run(), sys.Telemetry()
}

func TestTelemetryDisabledReturnsNil(t *testing.T) {
	_, tel := telemetryRun(t, 0, nextLinePF{degree: 2})
	if tel != nil {
		t.Fatalf("Telemetry() with interval 0 = %+v, want nil", tel)
	}
}

// TestTelemetryRowsPartitionAndSum is the core conservation invariant:
// a core's rows tile its measurement window exactly, and every windowed
// counter column sums to the run's CoreResult value — so the timeline is
// a lossless decomposition of the result, not an approximation of it.
func TestTelemetryRowsPartitionAndSum(t *testing.T) {
	res, tel := telemetryRun(t, 10_000, nextLinePF{degree: 2})
	if tel == nil || len(tel.Cores) != 1 {
		t.Fatalf("telemetry = %+v, want 1 core", tel)
	}
	ct := tel.Cores[0]
	if len(ct.Samples) < 3 {
		t.Fatalf("got %d samples for a 40k window at 10k interval", len(ct.Samples))
	}

	core := res.Cores[0]
	var prevEnd uint64
	var issued, useful, late uint64
	for i, sm := range ct.Samples {
		if sm.Start != prevEnd {
			t.Errorf("sample %d starts at %d, previous ended at %d: rows must tile the window", i, sm.Start, prevEnd)
		}
		if sm.End < sm.Start {
			t.Errorf("sample %d has End %d < Start %d", i, sm.End, sm.Start)
		}
		prevEnd = sm.End
		issued += sm.PrefetchesIssued
		useful += sm.UsefulPrefetches
		late += sm.LatePrefetches
		if sm.Accuracy < 0 || sm.Accuracy > 1 || sm.Coverage < 0 || sm.Coverage > 1 {
			t.Errorf("sample %d ratios out of range: accuracy %v coverage %v", i, sm.Accuracy, sm.Coverage)
		}
	}
	if ct.Samples[0].Start != 0 {
		t.Errorf("first sample starts at %d, want 0", ct.Samples[0].Start)
	}
	if prevEnd != core.Instructions {
		t.Errorf("last sample ends at %d, want the core's %d measured instructions", prevEnd, core.Instructions)
	}
	if want := core.PrefetchesIssuedL1 + core.PrefetchesIssuedL2; issued != want {
		t.Errorf("issued column sums to %d, CoreResult says %d", issued, want)
	}
	if want := core.L1D.UsefulPrefetches + core.L2C.UsefulPrefetches; useful != want {
		t.Errorf("useful column sums to %d, CoreResult says %d", useful, want)
	}
	if want := core.L1D.LatePrefetches + core.L2C.LatePrefetches; late != want {
		t.Errorf("late column sums to %d, CoreResult says %d", late, want)
	}
}

// TestTelemetryNeverPerturbsResult: collecting telemetry reads counters
// the run maintains anyway, so arming it must leave every result bit
// unchanged. This is the sim-level half of the content-address
// invisibility guarantee (the engine-level half byte-compares stores).
func TestTelemetryNeverPerturbsResult(t *testing.T) {
	bare, _ := telemetryRun(t, 0, nextLinePF{degree: 2})
	armed, tel := telemetryRun(t, 7_000, nextLinePF{degree: 2})
	if tel == nil {
		t.Fatal("no telemetry collected")
	}
	if !reflect.DeepEqual(bare, armed) {
		t.Errorf("telemetry perturbed the run:\nbare  %+v\narmed %+v", bare, armed)
	}
}

package engine

import (
	"bytes"
	"testing"

	"repro/internal/prefetchers"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestColumnsSlabMatchesRecordSlice pins the trace cache's one slab
// layout to the plain record slice it replaced: simulating a Quick
// catalogue trace over the cached heap *trace.Columns (the engine's own
// path) and over a trace.RecSlice of a fresh workload.Generate must
// export byte-equal result documents, for the no-prefetch baseline and
// every evaluated prefetcher. SPP-PPF is left out: its results are not
// reproducible from run to run (see TestQuickResultGolden).
func TestColumnsSlabMatchesRecordSlice(t *testing.T) {
	const name = "fotonik3d_s-8225"
	e := New(Options{Scale: Quick})

	slab, err := workload.MaterializeRecords(name, Quick.TraceLen)
	if err != nil {
		t.Fatal(err)
	}
	if cols, ok := slab.(*trace.Columns); !ok || cols.Mapped() {
		t.Fatalf("cached slab is %T, want heap *trace.Columns", slab)
	}
	recs, err := workload.Generate(name, Quick.TraceLen)
	if err != nil {
		t.Fatal(err)
	}

	var jobs []Job
	for _, pf := range append([]string{"none"}, prefetchers.EvaluatedNames()...) {
		if pf != "SPP-PPF" {
			jobs = append(jobs, Job{Traces: []string{name}, L1: []string{pf}})
		}
	}
	cached := e.RunAll(jobs)
	for i, j := range jobs {
		sys, err := sim.New(e.config(1), []sim.CoreSpec{{
			Trace:        trace.NewLooping(trace.NewRecordsReader(trace.RecSlice(recs))),
			L1Prefetcher: prefetchers.MustNew(j.L1[0]),
		}})
		if err != nil {
			t.Fatal(err)
		}
		key := j.CanonicalJSON(Quick)
		want, err := ExportResult(key, sys.Run())
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExportResult(key, cached[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s/%s: result over the cached columns differs from the record slice", name, j.L1[0])
		}
	}
}

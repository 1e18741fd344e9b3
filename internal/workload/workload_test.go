package workload

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

func TestCatalogueCounts(t *testing.T) {
	counts := map[string]int{}
	for _, info := range Catalogue() {
		counts[info.Suite]++
	}
	// Paper's Table III: 39 + 39 + 67 + 4 + 52 = 201 traces, plus the GAP
	// and QMM supplements.
	want := map[string]int{
		"spec06": 39, "spec17": 39, "ligra": 67, "parsec": 4, "cloud": 52,
		"gap": 6, "qmm.srv": 5, "qmm.clt": 5,
	}
	for suite, n := range want {
		if counts[suite] != n {
			t.Errorf("suite %s: %d traces, want %d", suite, counts[suite], n)
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if total != 217 {
		t.Errorf("total traces = %d, want 217 (201 + 16 supplementary)", total)
	}
}

func TestPaperNamedTracesExist(t *testing.T) {
	// Every trace name the paper's figures cite must exist.
	names := []string{
		// Fig 9 / Fig 11 labels.
		"lbm-1274", "cassandra-p1c1", "cactuBSSN_s-2421", "cassandra-p0c0",
		"mcf_s-1554", "mcf_s-484", "roms_s-523", "nutch-p4c2", "BC-4",
		"PageRank.D-52", "BC-5", "CF-155", "leslie3d-134", "bwaves_s-2609",
		"milc-127", "cactusADM-1804", "leslie3d-149", "soplex-247",
		"GemsFDTD-1169", "GemsFDTD-1211", "libquantum-714", "libquantum-1343",
		"sphinx3-417", "wrf-196", "BFS.B-18", "BC-27", "BellmanFord-25",
		"BFS-17", "BFSCC-17", "CF-185", "Components-24", "Components.S-22",
		"MIS-17", "PageRank-80", "PageRank.D-24", "Triangle-4", "canneal-1",
		"facesim-2", "streamcluster-5", "cloud9-p5c2", "nutch-p0c0",
		"stream-p1c0", "gcc_s-734", "gcc_s-2226", "bwaves_s-1740",
		"mcf_s-665", "mcf_s-1536", "cactuBSSN_s-3477", "lbm_s-2676",
		"omnetpp_s-141", "xalancbmk_s-10", "xalancbmk_s-202", "cam4_s-490",
		"pop2_s-17", "fotonik3d_s-8225", "fotonik3d_s-10881", "roms_s-294",
		// Fig 10 labels.
		"bwaves-1963", "leslie3d-271", "wrf-816", "gcc_s-1850", "wrf_s-8065",
		"facesim-22", "nutch-p3c1", "PageRank-1", "PageRank-61",
		"PageRank.D-3", "BellmanFord-4", "BellmanFord-34", "Components-4",
		"Components.S-4", "Components.S-21",
		// Fig 12 (GAP + QMM).
		"cc.twi.10", "cc.web.10", "pr.twi.10", "pr.web.10", "tc.twi.10",
		"tc.web.10", "srv.09", "srv.27", "srv.46", "srv.40", "srv.67",
		"clt.fp.06", "clt.fp.08", "clt.int.01", "clt.int.19", "clt.int.31",
		// Fig 17/18 panel.
		"omnetpp-188", "wrf-1254", "mcf_s-484", "fotonik3d_s-7084",
		"roms_s-1070", "streamcluster-5",
		// Table VI mixes.
		"Triangle-1", "Triangle-6", "PageRank-19", "BFS.B-5", "BFS-5",
		"bwaves_s-2609", "BFSCC-1", "astar-359", "bwaves-1963",
	}
	for _, name := range names {
		if !Exists(name) {
			t.Errorf("paper trace %q missing from catalogue", name)
		}
	}
}

func TestGenerateUnknownName(t *testing.T) {
	if _, err := Generate("no-such-trace", 10); err == nil {
		t.Error("unknown trace accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate("bwaves_s-2609", 5000)
	b := MustGenerate("bwaves_s-2609", 5000)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestGenerateExactLength(t *testing.T) {
	for _, name := range []string{"lbm-1274", "mcf_s-1554", "PageRank-61", "cassandra-p0c0", "srv.09"} {
		recs := MustGenerate(name, 3000)
		if len(recs) != 3000 {
			t.Errorf("%s: generated %d records, want 3000", name, len(recs))
		}
	}
}

func TestDifferentTracesDiffer(t *testing.T) {
	a := MustGenerate("leslie3d-134", 1000)
	b := MustGenerate("leslie3d-149", 1000)
	same := 0
	for i := range a {
		if a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same > 500 {
		t.Errorf("sibling traces nearly identical: %d/1000 equal addresses", same)
	}
}

func TestStreamingIsDense(t *testing.T) {
	st := AnalyzeFootprints(trace.RecSlice(MustGenerate("lbm-1274", 40000)))
	if st.MeanDensity < 30 {
		t.Errorf("streaming mean density = %.1f, want high", st.MeanDensity)
	}
	if st.Dense == 0 {
		t.Error("streaming trace produced no fully-dense regions")
	}
}

func TestIrregularIsSparse(t *testing.T) {
	st := AnalyzeFootprints(trace.RecSlice(MustGenerate("mcf_s-1554", 40000)))
	if st.MeanDensity > 8 {
		t.Errorf("irregular mean density = %.1f, want low", st.MeanDensity)
	}
	if st.SingleBlock == 0 {
		t.Error("irregular trace produced no single-block regions")
	}
}

func TestCloudIsTriggerAmbiguous(t *testing.T) {
	cloud := AnalyzeFootprints(trace.RecSlice(MustGenerate("cassandra-p0c0", 60000)))
	strm := AnalyzeFootprints(trace.RecSlice(MustGenerate("lbm-1274", 60000)))
	if cloud.TriggerAmbiguity <= strm.TriggerAmbiguity {
		t.Errorf("cloud ambiguity %.2f <= streaming %.2f; trigger collisions missing",
			cloud.TriggerAmbiguity, strm.TriggerAmbiguity)
	}
	if cloud.TriggerAmbiguity < 2 {
		t.Errorf("cloud trigger ambiguity = %.2f, want >= 2 distinct footprints/trigger",
			cloud.TriggerAmbiguity)
	}
}

func TestGraphComputeMixesDenseAndSparse(t *testing.T) {
	st := AnalyzeFootprints(trace.RecSlice(MustGenerate("PageRank-61", 60000)))
	if st.Dense == 0 {
		t.Error("graph compute has no dense (frontier) regions")
	}
	if st.DensityHistogram[0]+st.DensityHistogram[1] == 0 {
		t.Error("graph compute has no sparse (vertex) regions")
	}
}

func TestServerLowIntensityHighLocality(t *testing.T) {
	recs := MustGenerate("srv.09", 40000)
	// Mean gap must be clearly larger than memory-intensive traces.
	var gaps, loads int
	for _, r := range recs {
		gaps += int(r.NonMem)
		loads++
	}
	meanGap := float64(gaps) / float64(loads)
	if meanGap < 9 {
		t.Errorf("server mean gap = %.1f, want >= 9 (low memory intensity)", meanGap)
	}
	// High page-level reuse: touched regions far fewer than accesses.
	st := AnalyzeFootprints(trace.RecSlice(recs))
	if st.Regions > loads/4 {
		t.Errorf("server regions = %d for %d loads; want strong locality", st.Regions, loads)
	}
}

func TestSuiteFilter(t *testing.T) {
	for _, suite := range Suites() {
		infos := Suite(suite)
		if len(infos) == 0 {
			t.Errorf("suite %s empty", suite)
		}
		for _, info := range infos {
			if info.Suite != suite {
				t.Errorf("Suite(%s) returned %+v", suite, info)
			}
		}
	}
}

func TestNewReaderLoops(t *testing.T) {
	r, err := NewReader("leslie3d-134", 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 250; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatalf("looping reader failed at %d: %v", i, err)
		}
	}
	if r.Wraps() < 2 {
		t.Errorf("wraps = %d, want >= 2", r.Wraps())
	}
}

func TestRecordsAreWellFormed(t *testing.T) {
	for _, name := range []string{"bwaves-1963", "mcf-46", "BC-27", "cloud9-p5c2", "clt.fp.06"} {
		for _, r := range MustGenerate(name, 5000) {
			if r.Kind != trace.Load && r.Kind != trace.Store {
				t.Fatalf("%s: bad kind %d", name, r.Kind)
			}
			if r.Addr < dataBase {
				t.Fatalf("%s: address %#x below data base", name, r.Addr)
			}
			if r.PC < loadPCBase {
				t.Fatalf("%s: PC %#x below PC base", name, r.PC)
			}
		}
	}
}

func TestTopPCs(t *testing.T) {
	recs := MustGenerate("lbm-1274", 20000)
	top := TopPCs(recs, 5)
	if len(top) == 0 {
		t.Fatal("no top PCs")
	}
	var sum float64
	for i, p := range top {
		if i > 0 && top[i-1].Share < p.Share {
			t.Error("TopPCs not sorted")
		}
		sum += p.Share
	}
	if sum <= 0 || sum > 1.0001 {
		t.Errorf("share sum = %v", sum)
	}
}

func TestAnalyzeFootprintsEmpty(t *testing.T) {
	st := AnalyzeFootprints(trace.RecSlice(nil))
	if st.Regions != 0 || st.MeanDensity != 0 {
		t.Errorf("empty analysis = %+v", st)
	}
}

func TestFootprintSecondOffsetTracking(t *testing.T) {
	// Directly check the streaming signature: region accessed 0,1,2...
	recs := []trace.Record{}
	page := uint64(dataBase)
	for off := 0; off < 64; off++ {
		recs = append(recs, trace.Record{
			PC: loadPCBase, Addr: page + uint64(off)*mem.LineSize, Kind: trace.Load,
		})
	}
	st := AnalyzeFootprints(trace.RecSlice(recs))
	if st.Regions != 1 || st.Dense != 1 {
		t.Errorf("stats = %+v, want one dense region", st)
	}
}

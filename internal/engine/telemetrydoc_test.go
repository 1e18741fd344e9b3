package engine

// The fast telemetry-document parser against encoding/json: every
// document the canonical encoder writes must take the fast path and
// decode to exactly what json.Unmarshal produces, allocations must not
// grow with the sample count, and on arbitrary bytes the decoders must
// succeed or fail exactly as the encoding/json reference does.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/prefetch"
	"repro/internal/prefetchers"
	"repro/internal/sim"
)

// referenceRecord decodes a document the way the decoders did before the
// fast parser: json.Unmarshal, then the version and payload checks.
func referenceRecord(data []byte) (telemetryRecord, error) {
	var rec telemetryRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return telemetryRecord{}, err
	}
	if rec.Version != TelemetrySchemaVersion {
		return telemetryRecord{}, errors.New("schema version")
	}
	if rec.Telemetry == nil {
		return telemetryRecord{}, errors.New("no payload")
	}
	return rec, nil
}

// checkFastPath requires doc to take the fast parser and decode equal to
// json.Unmarshal.
func checkFastPath(t *testing.T, name string, doc []byte) {
	t.Helper()
	got, ok := parseTelemetryRecord(doc)
	if !ok {
		t.Errorf("%s: canonical document (%d bytes) fell back to encoding/json", name, len(doc))
		return
	}
	var want telemetryRecord
	if err := json.Unmarshal(doc, &want); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: fast parse differs from encoding/json:\n got %+v\nwant %+v", name, got, want)
	}
}

// TestCanonicalTelemetryTakesFastPath simulates none and every evaluated
// prefetcher at a tiny scale, plus a 2-core job and a job with an L2
// prefetcher, and requires every document the engine persisted to take
// the fast path.
func TestCanonicalTelemetryTakesFastPath(t *testing.T) {
	var jobs []Job
	for _, pf := range append([]string{"none"}, prefetchers.EvaluatedNames()...) {
		jobs = append(jobs, Job{Traces: []string{"lbm-1274"}, L1: []string{pf}})
	}
	jobs = append(jobs,
		Job{Traces: []string{"lbm-1274", "mcf_s-1554"}, L1: []string{"Gaze"}},
		Job{Traces: []string{"lbm-1274"}, L1: []string{"IP-stride"}, L2: []string{"Bingo"}},
	)
	e := New(Options{Scale: tiny, TelemetryInterval: 5_000})
	e.RunAll(jobs)
	for _, j := range jobs {
		doc, ok := e.Telemetry(j.ContentAddress(tiny))
		if !ok {
			t.Fatalf("%s: no telemetry document", j)
		}
		checkFastPath(t, j.String(), doc)
	}
}

// benchTelemetry builds a bigtrace-scale timeline: one Gaze core with n
// samples of full-precision ratios and realistic counters, the shape
// perfbench's bigtrace-mapped read-back decodes (n = 40).
func benchTelemetry(n int) *sim.Telemetry {
	x := uint64(0x9e3779b97f4a7c15)
	frac := func() float64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return float64(x>>11) / (1 << 53)
	}
	samples := make([]sim.IntervalSample, n)
	for i := range samples {
		start := uint64(i) * 50_003
		samples[i] = sim.IntervalSample{
			Start: start, End: start + 50_003,
			IPC: 0.3 + frac(), L1MPKI: 30 + 10*frac(), L2MPKI: 15 + 5*frac(), LLCMPKI: 15 + 5*frac(),
			PrefetchesIssued: 9000 + uint64(i), UsefulPrefetches: 5800 + uint64(i), LatePrefetches: 4400 + uint64(i),
			Accuracy: frac(), Coverage: frac(), PQOccupancy: i % 32, DRAMRowHitRate: frac(),
		}
	}
	in := prefetch.Introspection{PatternEntries: 211, PatternCapacity: 256, StreamHits: 42040, PatternHits: 1803}
	for i := range in.ReuseHistogram {
		in.ReuseHistogram[i] = uint64(i * 37)
	}
	return &sim.Telemetry{Interval: 50_000, Cores: []sim.CoreTelemetry{{
		Prefetcher: "Gaze", Samples: samples, Introspection: &in,
	}}}
}

func benchKey() string {
	return Job{Traces: []string{"ingested:0123456789abcdef"}, L1: []string{"Gaze"}}.
		CanonicalJSON(Scale{TraceLen: 4_000_000, Warmup: 1_000_000, Sim: 2_000_000})
}

// BenchmarkDecodeTelemetry decodes a 40-sample, bigtrace-scale document
// (about 17 KB), the per-cell cost of perfbench's timeline read-back.
func BenchmarkDecodeTelemetry(b *testing.B) {
	doc, err := ExportTelemetry(benchKey(), benchTelemetry(40))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecodeTelemetry(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeTelemetryAllocsFlat pins the fast path's allocations: a
// fixed count per document and core, none per sample or field.
func TestDecodeTelemetryAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		doc, err := ExportTelemetry(benchKey(), benchTelemetry(n))
		if err != nil {
			t.Fatal(err)
		}
		checkFastPath(t, fmt.Sprintf("%d samples", n), doc)
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeTelemetry(doc); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(4), allocs(400)
	if large != small {
		t.Errorf("allocations grow with samples: %v at 4 samples, %v at 400", small, large)
	}
	if large > 10 {
		t.Errorf("decoding a document allocates %v times, want at most 10", large)
	}
}

// TestDecodeTelemetryRejectsOtherVersion: a sidecar stamped with another
// schema version is an error on both decoders and both paths, never v1
// rows.
func TestDecodeTelemetryRejectsOtherVersion(t *testing.T) {
	key := benchKey()
	doc, err := ExportTelemetry(key, benchTelemetry(3))
	if err != nil {
		t.Fatal(err)
	}
	v1 := fmt.Sprintf(`"version": %d,`, TelemetrySchemaVersion)
	for name, d := range map[string]string{
		"v2 fast":     strings.Replace(string(doc), v1, `"version": 2,`, 1),
		"v2 fallback": strings.Replace(string(doc), v1, `"Version": 2,`, 1),
		"v0 absent":   strings.Replace(string(doc), v1, ``, 1),
	} {
		if _, err := DecodeTelemetry([]byte(d)); err == nil {
			t.Errorf("%s: DecodeTelemetry accepted the document", name)
		}
		if _, _, err := ImportTelemetry(hashKey(key), []byte(d)); err == nil {
			t.Errorf("%s: ImportTelemetry accepted the document", name)
		}
	}
}

// fuzzTelemetrySeeds returns exported documents plus edge cases around
// the fast parser's subset: each either stays inside it or must fall back
// to encoding/json and decode exactly as it does there.
func fuzzTelemetrySeeds(t testing.TB) [][]byte {
	key := Job{Traces: []string{"lbm-1274"}, L1: []string{"Gaze"}}.
		CanonicalJSON(Scale{TraceLen: 1000, Warmup: 100, Sim: 200})
	var seeds [][]byte
	for _, tel := range []*sim.Telemetry{
		benchTelemetry(3),
		{Interval: 100, Cores: []sim.CoreTelemetry{
			{Prefetcher: "none", Samples: []sim.IntervalSample{}},
			{Prefetcher: "IP-stride+Bingo", Samples: []sim.IntervalSample{{Start: 0, End: 100, IPC: 1}}},
		}},
	} {
		doc, err := ExportTelemetry(key, tel)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, doc)
	}
	quoted, err := json.Marshal(key)
	if err != nil {
		t.Fatal(err)
	}
	base := `{"version":1,"key":` + string(quoted) + `,"telemetry":{"interval":100,"cores":[{"prefetcher":"Gaze",` +
		`"samples":[{"start":0,"end":100,"ipc":0.4,"l1_mpki":12.5,"prefetches_issued":3,"accuracy":0.9},` +
		`{"start":100,"end":200,"ipc":0.3,"pq_occupancy":2}],` +
		`"introspection":{"pattern_entries":5,"pattern_capacity":64,"stream_hits":7,"reuse_histogram":[1,2,3]}}]}}`
	seeds = append(seeds, []byte(base))
	edit := func(old, new string) {
		if !strings.Contains(base, old) {
			t.Fatalf("seed edit %q does not apply", old)
		}
		seeds = append(seeds, []byte(strings.Replace(base, old, new, 1)))
	}
	// Reordered, duplicate, case-variant and unknown keys.
	seeds = append(seeds, []byte(`{"telemetry":{"cores":[],"interval":7},"key":`+string(quoted)+`,"version":1}`))
	edit(`"version":1,`, `"version":1,"version":1,`)
	edit(`"start":0,`, `"start":0,"start":5,`)
	edit(`"interval":100,`, `"interval":100,"interval":200,`)
	edit(`"version":1,`, `"Version":1,`)
	edit(`"ipc":0.4`, `"IPC":0.4`)
	edit(`"end":100,`, `"end":100,"extra":[1,{"a":null}],`)
	// null where the schema has a value.
	edit(`"introspection":{"pattern_entries":5,"pattern_capacity":64,"stream_hits":7,"reuse_histogram":[1,2,3]}`, `"introspection":null`)
	edit(`"samples":[`, `"samples":null,"x":[`)
	edit(`"version":1`, `"version":null`)
	seeds = append(seeds, []byte(`null`), []byte(`{"version":1,"key":"","telemetry":null}`))
	// Escaped, non-ASCII and invalid-UTF-8 strings.
	edit(`"prefetcher":"Gaze"`, `"prefetcher":"G\u0061ze"`)
	edit(`"prefetcher":"Gaze"`, `"prefetcher":"Gazé"`)
	edit(`"prefetcher":"Gaze"`, "\"prefetcher\":\"Ga\xffze\"")
	edit(`"prefetcher":"Gaze"`, `"prefetcher":"Ga\/ze"`)
	edit(`\"traces\"`, `\"tr\u0061ces\"`)
	edit(`"stream_hits"`, `"str\u0065am_hits"`)
	// Exponent, negative and -0 numbers, in float and integer fields.
	edit(`"ipc":0.4`, `"ipc":4E-1`)
	edit(`"ipc":0.4`, `"ipc":-0`)
	edit(`"ipc":0.4`, `"ipc":-0.4e+0`)
	edit(`"ipc":0.4`, `"ipc":1e400`)
	edit(`"ipc":0.4`, `"ipc":04`)
	edit(`"start":0,`, `"start":-0,`)
	edit(`"start":0,`, `"start":1e2,`)
	edit(`"start":0,`, `"start":18446744073709551616,`)
	edit(`"pq_occupancy":2`, `"pq_occupancy":-2`)
	edit(`"version":1`, `"version":-0`)
	edit(`"version":1`, `"version":1.0`)
	edit(`[1,2,3]`, `[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17]`)
	edit(`[1,2,3]`, `[]`)
	edit(`"cores":[`, `"cores":[],"c":[`)
	// Trailing bytes and torn documents.
	seeds = append(seeds, []byte(base+" \n\t"), []byte(base+"x"), []byte(base+"{}"),
		[]byte(base[:len(base)/2]), []byte(base[:len(base)-1]), []byte(" "+base))
	return seeds
}

// FuzzDecodeTelemetry holds the fast parser to encoding/json: when it
// accepts an input, json.Unmarshal succeeds with an equal value, and
// DecodeTelemetry and ImportTelemetry succeed or fail exactly as the
// reference does, with equal results.
func FuzzDecodeTelemetry(f *testing.F) {
	for _, seed := range fuzzTelemetrySeeds(f) {
		f.Add(seed)
	}
	fallbackAddr := hashKey("fuzz")
	f.Fuzz(func(t *testing.T, data []byte) {
		if fast, ok := parseTelemetryRecord(data); ok {
			var want telemetryRecord
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("fast parser accepted what encoding/json rejects: %v", err)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast parse differs from encoding/json:\n got %+v\nwant %+v", fast, want)
			}
		}
		ref, refErr := referenceRecord(data)

		tel, err := DecodeTelemetry(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeTelemetry error %v, reference error %v", err, refErr)
		}
		if err == nil && !reflect.DeepEqual(tel, ref.Telemetry) {
			t.Fatalf("DecodeTelemetry differs from the reference:\n got %+v\nwant %+v", tel, ref.Telemetry)
		}

		addr := fallbackAddr
		if refErr == nil {
			addr = hashKey(ref.Key)
		}
		key, tel, err := ImportTelemetry(addr, data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("ImportTelemetry error %v, reference error %v", err, refErr)
		}
		if err == nil && (key != ref.Key || !reflect.DeepEqual(tel, ref.Telemetry)) {
			t.Fatalf("ImportTelemetry differs from the reference: key %q vs %q", key, ref.Key)
		}
	})
}

// TestCheckTelemetryVersion: the canonical document passes on its
// leading bytes, another encoding of it through the decoder, and a
// document of another version — including one whose number only starts
// with this version's — fails with the decoder's error.
func TestCheckTelemetryVersion(t *testing.T) {
	doc, err := ExportTelemetry("k", &sim.Telemetry{Interval: 10, Cores: []sim.CoreTelemetry{{Prefetcher: "Gaze"}}})
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, doc); err != nil {
		t.Fatal(err)
	}
	for _, ok := range [][]byte{doc, compact.Bytes()} {
		if err := CheckTelemetryVersion(ok); err != nil {
			t.Errorf("CheckTelemetryVersion(%.40q) = %v", ok, err)
		}
	}
	v1 := fmt.Sprintf(`"version": %d,`, TelemetrySchemaVersion)
	for _, v := range []int{TelemetrySchemaVersion + 1, TelemetrySchemaVersion * 10} {
		other := bytes.Replace(doc, []byte(v1), []byte(fmt.Sprintf(`"version": %d,`, v)), 1)
		_, want := DecodeTelemetry(other)
		if err := CheckTelemetryVersion(other); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("v%d: CheckTelemetryVersion = %v, want the decoder's %v", v, err, want)
		}
	}
}

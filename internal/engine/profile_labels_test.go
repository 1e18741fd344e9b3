package engine

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"runtime/pprof"
	"testing"
	"time"
)

// TestProfileLabelsSplitByPrefetcher profiles a small sweep and requires
// the job address, prefetcher and phase label values in the profile's
// string table, so a -debug-addr CPU profile splits by them. Rounds
// repeat until every value has been sampled (a CPU profile samples at
// 100 Hz, so a short round can miss a job).
func TestProfileLabelsSplitByPrefetcher(t *testing.T) {
	scale := Scale{TraceLen: 10_000, Warmup: 5_000, Sim: 1_000_000}
	jobs := []Job{
		{Traces: []string{"lbm-1274"}, L1: []string{"Gaze"}},
		{Traces: []string{"lbm-1274"}, L1: []string{"PMP"}},
	}
	want := map[string]bool{
		"job": false, jobs[0].ContentAddress(scale): false,
		"prefetcher": false, "Gaze": false, "PMP": false,
		"phase": false, "simulate": false,
	}
	missing := func() (n int) {
		for _, seen := range want {
			if !seen {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(30 * time.Second); missing() > 0; {
		if time.Now().After(deadline) {
			t.Fatalf("label values never sampled: %v", want)
		}
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			t.Skipf("CPU profiler busy: %v", err)
		}
		New(Options{Scale: scale}).RunAll(jobs)
		pprof.StopCPUProfile()
		for _, s := range profileStrings(t, buf.Bytes()) {
			if _, ok := want[s]; ok {
				want[s] = true
			}
		}
	}
}

// profileStrings gunzips a pprof profile and returns its string table
// (field 6 of the Profile message, repeated string).
func profileStrings(t *testing.T, gz []byte) []string {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			t.Fatal("malformed profile: bad field tag")
		}
		b = b[n:]
		switch tag & 7 {
		case 0: // varint
			if _, n = binary.Uvarint(b); n <= 0 {
				t.Fatal("malformed profile: bad varint")
			}
			b = b[n:]
		case 1: // 64-bit
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				t.Fatal("malformed profile: bad length")
			}
			if tag>>3 == 6 {
				out = append(out, string(b[n:n+int(l)]))
			}
			b = b[n+int(l):]
		case 5: // 32-bit
			b = b[4:]
		default:
			t.Fatalf("malformed profile: wire type %d", tag&7)
		}
	}
	return out
}

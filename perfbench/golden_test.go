package main

import (
	"strings"
	"testing"

	"repro/internal/engine"
)

func TestGoldenRejectsPerturbedDigest(t *testing.T) {
	addr := strings.Repeat("ab", 32)
	doc := []byte(`{"version": 2, "key": "k", "result": {}}`)
	g, err := parseGolden([]byte(addr[:goldenHex] + " " + digest(doc) + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if checked, err := g.check(addr, doc); err != nil || !checked {
		t.Fatalf("unperturbed document: checked %v, %v", checked, err)
	}

	// One changed byte of the document changes its digest.
	bad := append([]byte(nil), doc...)
	bad[len(bad)-2] = ' '
	if _, err := g.check(addr, bad); err == nil {
		t.Error("perturbed document accepted")
	}

	// One changed digit of the golden digest.
	want := g[addr[:goldenHex]]
	flip := "0"
	if want[0] == '0' {
		flip = "1"
	}
	g[addr[:goldenHex]] = flip + want[1:]
	if _, err := g.check(addr, doc); err == nil {
		t.Error("document accepted against a perturbed golden digest")
	}

	if _, err := g.check(strings.Repeat("cd", 32), doc); err == nil {
		t.Error("address without a golden digest accepted")
	}
}

func TestGoldenUnreproducibleCellIsUncheckedNotAccepted(t *testing.T) {
	addr := strings.Repeat("ef", 32)
	g, err := parseGolden([]byte(addr[:goldenHex] + " " + unreproducibleMark + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	checked, err := g.check(addr, []byte("any document"))
	if err != nil || checked {
		t.Errorf("marked cell: checked %v, %v; want unchecked and no error", checked, err)
	}
}

// Every unreproducible prefetcher's cells, and only those, are marked in
// the committed golden.
func TestCommittedGoldenMarksOnlyUnreproducibleCells(t *testing.T) {
	g, err := parseGolden(goldenText)
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range prefetcherNames() {
		for _, dram := range []int{0, serveDRAMMTPS} {
			j := engine.Job{Traces: []string{coreTraces()[0]}, L1: []string{pf}, Overrides: engine.Overrides{DRAMMTPS: dram}}
			sum, ok := g[j.ContentAddress(engine.Quick)[:goldenHex]]
			if !ok {
				t.Errorf("%s at %d MT/s has no golden line", pf, dram)
				continue
			}
			if marked := sum == unreproducibleMark; marked != unreproducible[pf] {
				t.Errorf("%s at %d MT/s: marked %v", pf, dram, marked)
			}
		}
	}
}

func TestParseGoldenRejectsMalformedLines(t *testing.T) {
	for _, text := range []string{
		"abc def\n",
		strings.Repeat("a", goldenHex) + "\n",
		strings.Repeat("a", goldenHex) + " " + strings.Repeat("b", goldenHex-1) + "\n",
	} {
		if _, err := parseGolden([]byte(text)); err == nil {
			t.Errorf("parseGolden(%q) succeeded", text)
		}
	}
}

func TestCommittedGoldenParses(t *testing.T) {
	g, err := parseGolden(goldenText)
	if err != nil {
		t.Fatal(err)
	}
	if len(g) == 0 {
		t.Fatal("committed golden is empty")
	}
}

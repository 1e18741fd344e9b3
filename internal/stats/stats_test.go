package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGeomean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2}, 2},
		{[]float64{1, 4}, 2},
		{[]float64{1, 1, 8}, 2},
		{[]float64{0.5, 2}, 1},
	}
	for _, c := range cases {
		if got := Geomean(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Geomean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Non-positive input is rejected as zero (speedups are positive).
	if Geomean([]float64{1, 0}) != 0 {
		t.Error("Geomean with zero did not return 0")
	}
}

func TestGeomeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, r := range raw {
			vals[i] = 0.5 + float64(r)/1000
		}
		g := Geomean(vals)
		return g >= Min(vals)-1e-9 && g <= Max(vals)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanMinMax(t *testing.T) {
	vals := []float64{3, 1, 2}
	if Mean(vals) != 2 {
		t.Errorf("Mean = %v", Mean(vals))
	}
	if Min(vals) != 1 || Max(vals) != 3 {
		t.Error("Min/Max wrong")
	}
	if Mean(nil) != 0 || Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty-input extrema not zero")
	}
}

func TestTableFormatting(t *testing.T) {
	tb := Table{
		Title:  "demo",
		Note:   "a note",
		Header: []string{"name", "value"},
	}
	tb.AddRow("short", "1.0")
	tb.AddRow("a-much-longer-name", "12.5")
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "a note") {
		t.Error("note missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// Header and rows are padded to a common grid: with a right-aligned
	// final column every line has the same width.
	var widths []int
	for _, ln := range lines[2:] {
		widths = append(widths, len(ln))
	}
	for i := 1; i < len(widths); i++ {
		if widths[i] != widths[0] {
			t.Errorf("columns misaligned: %v\n%s", widths, out)
			break
		}
	}
}

// TestTableFormattingMultiByte: a column of multi-byte cells (Table V's
// ✔/✘) pads to the same grid as ASCII ones — widths count runes, not
// bytes.
func TestTableFormattingMultiByte(t *testing.T) {
	tb := Table{Title: "marks", Header: []string{"scheme", "ok", "n"}}
	tb.AddRow("Gaze", "✔", "1")
	tb.AddRow("Offset", "✘✘", "22")
	var buf bytes.Buffer
	tb.Fprint(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")[1:]
	want := []string{
		"scheme  ok   n",
		"Gaze     ✔   1",
		"Offset  ✘✘  22",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Errorf("table =\n%s\nwant\n%s", strings.Join(lines, "\n"), strings.Join(want, "\n"))
	}
}

func TestFormatters(t *testing.T) {
	if F(1.23456, 2) != "1.23" {
		t.Errorf("F = %q", F(1.23456, 2))
	}
	if Pct(0.1234) != "12.3%" {
		t.Errorf("Pct = %q", Pct(0.1234))
	}
}

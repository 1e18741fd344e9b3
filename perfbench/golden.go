package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/sim"
)

// goldenText holds one line per content address a workload may simulate:
// "<address prefix> <SHA-256 prefix of its engine.ExportResult bytes>",
// both the first goldenHex hex digits, or "<address prefix>
// unreproducible" for a cell of an unreproducible prefetcher. It is
// produced by -make-golden.
//
//go:embed golden.txt
var goldenText []byte

// goldenHex is how many hex digits of the address and of the digest a
// golden line keeps (128 bits each).
const goldenHex = 32

// unreproducibleMark stands in a golden line for the digest of a cell
// whose result differs between identical runs.
const unreproducibleMark = "unreproducible"

type golden map[string]string

func parseGolden(data []byte) (golden, error) {
	g := make(golden)
	sc := bufio.NewScanner(bytes.NewReader(data))
	for n := 1; sc.Scan(); n++ {
		addr, sum, ok := strings.Cut(strings.TrimSpace(sc.Text()), " ")
		if !ok || len(addr) != goldenHex || (len(sum) != goldenHex && sum != unreproducibleMark) {
			return nil, fmt.Errorf("golden line %d: malformed %q", n, sc.Text())
		}
		g[addr] = sum
	}
	return g, sc.Err()
}

func digest(doc []byte) string {
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])[:goldenHex]
}

// check verifies one result document against the golden digest of its
// content address. It reports whether there was a digest to check: an
// address marked unreproducible has none, and only the address itself
// must be known.
func (g golden) check(addr string, doc []byte) (checked bool, err error) {
	want, ok := g[addr[:goldenHex]]
	if !ok {
		return false, fmt.Errorf("no golden digest for address %s", addr)
	}
	if want == unreproducibleMark {
		return false, nil
	}
	if got := digest(doc); got != want {
		return false, fmt.Errorf("result %s: digest %s, golden %s", addr[:12], got, want)
	}
	return true, nil
}

// goldenCell is one job of the golden universe at its scale.
type goldenCell struct {
	scale engine.Scale
	job   engine.Job
}

// makeGolden simulates every cell any workload can run, once at one
// engine worker and once at two, requires the two digests of every cell
// to agree (so scheduling cannot flip a golden), and writes the file.
// Cells of unreproducible prefetchers are not simulated; their lines
// carry unreproducibleMark.
func makeGolden(path string, cells []goldenCell) error {
	byScale := make(map[engine.Scale][]engine.Job)
	var scales []engine.Scale
	var lines []string
	for _, c := range cells {
		if unreproducible[c.job.L1[0]] {
			addr := c.job.ContentAddress(c.scale)
			lines = append(lines, addr[:goldenHex]+" "+unreproducibleMark)
			continue
		}
		if _, ok := byScale[c.scale]; !ok {
			scales = append(scales, c.scale)
		}
		byScale[c.scale] = append(byScale[c.scale], c.job)
	}
	var first map[string]string
	for _, workers := range []int{1, 2} {
		got := make(map[string]string)
		for _, sc := range scales {
			jobs := byScale[sc]
			eng := engine.New(engine.Options{Scale: sc, Workers: workers, TelemetryInterval: sim.DefaultTelemetryInterval})
			results := eng.RunAll(jobs)
			for i, j := range jobs {
				key := j.CanonicalJSON(sc)
				doc, err := engine.ExportResult(key, results[i])
				if err != nil {
					return err
				}
				got[engine.AddressOfKey(key)[:goldenHex]] = digest(doc)
			}
		}
		fmt.Fprintf(os.Stderr, "golden: %d cells at %d worker(s)\n", len(got), workers)
		if first == nil {
			first = got
			continue
		}
		for addr, sum := range first {
			if got[addr] != sum {
				return fmt.Errorf("golden: cell %s differs between 1 and %d workers", addr, workers)
			}
		}
	}
	for addr, sum := range first {
		lines = append(lines, addr+" "+sum)
	}
	sort.Strings(lines)
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload (sweep-cold, bigtrace-mapped or
// serve-mixed) in this process for a fixed time, checks every simulated
// output against committed golden digests, and prints one JSON result
// line. See README.md in this directory for the workloads, the metrics
// and which layer metric should move which end-to-end metric.
//
// Usage, from the repository root (perfbench/run.py builds and runs it):
//
//	perfbench --workload sweep-cold --seed 1 --seconds 10 --trace 0
//	perfbench --make-golden
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	// setupReps is how many times each workload builds its set-up;
	// setup_s is the median, and the last set-up is the one the run uses.
	setupReps = 5
	// Minimum samples of an untraced run: submit_p90_ms and read_p99_ms
	// need minBeyond samples beyond them.
	minSubmits = 100 + minBeyond
	minReads   = 1000 + 10*minBeyond
)

// env is what a workload gets from the command line.
type env struct {
	ctx     context.Context
	seed    uint64
	seconds time.Duration
	traced  bool
	dir     string // scratch directory of this run, removed at exit
	golden  golden
	rec     *recorder // nil in untraced runs
	workers int       // nproc: busy goroutines the workload may use
}

// outcome is what a workload measured.
type outcome struct {
	instr    float64 // simulated instructions so far
	requests int64   // client requests completed so far
	submits  []float64
	reads    []float64
	setups   []float64
	// rounds holds the untraced rounds of the timed phase (serve-mixed:
	// its one-second windows). The rates are medians over rounds, so a
	// burst of host contention in a few of them does not move them.
	rounds []round

	// ref holds the workload's reference cells: a fixed, seed-independent
	// set of results the gaze_* and sim.* figures are computed over.
	ref refSet

	attempted, failed int64
	// unchecked counts simulated cells that have no golden digest to
	// check because their prefetcher is unreproducible.
	unchecked int64

	// layer holds the per-layer metrics the workload measured itself
	// (traced runs only).
	layer map[string]float64
}

// round is what one round of the timed phase did.
type round struct{ secs, instr, requests float64 }

func roundRates(rs []round) (instrPerS, requestsPerS []float64) {
	for _, r := range rs {
		instrPerS = append(instrPerS, r.instr/r.secs)
		requestsPerS = append(requestsPerS, r.requests/r.secs)
	}
	return instrPerS, requestsPerS
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type workloadFunc func(*env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"sweep-cold":      sweepCold,
	"bigtrace-mapped": bigtraceMapped,
	"serve-mixed":     serveMixed,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload to run: sweep-cold, bigtrace-mapped or serve-mixed")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	mkGolden := flag.Bool("make-golden", false, "simulate every cell a workload can run and rewrite perfbench/golden.txt")
	flag.Parse()

	err := os.MkdirAll(".bench_build", 0o755)
	var dir string
	if err == nil {
		dir, err = os.MkdirTemp(".bench_build", "work-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	if *mkGolden {
		if err := writeGolden(dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload sweep-cold|bigtrace-mapped|serve-mixed, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	g, err := parseGolden(goldenText)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	host := hostInfo()
	e := &env{
		ctx:     context.Background(),
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *traceFlag == 1,
		dir:     dir,
		golden:  g,
		workers: host.Nproc,
	}
	if e.traced {
		e.rec = newRecorder()
	}

	out, runErr := wl(e)
	res := result{Correct: runErr == nil, Metrics: map[string]metric{}}
	if out != nil {
		res.Attempted, res.Failed = out.attempted, out.failed
	}
	if runErr == nil {
		if e.traced {
			runErr = perLayerMetrics(out, res.Metrics)
			if runErr == nil && e.rec != nil {
				path := filepath.Join(".bench_build", "spans-"+*name+".ndjson")
				if err := e.rec.write(path); err != nil {
					fmt.Fprintln(os.Stderr, "perfbench:", err)
				}
			}
		} else {
			runErr = endToEndMetrics(out, res.Metrics)
		}
	}
	info := map[string]any{"workload": *name, "seed": *seed, "host": host}
	if out != nil {
		info["samples"] = map[string]int{"submit": len(out.submits), "read": len(out.reads), "setup": len(out.setups)}
		info["golden_unchecked"] = out.unchecked
		if ips, _ := roundRates(out.rounds); len(ips) > 1 {
			s, _ := spread(ips)
			info["round_spread"] = s
		}
	}
	if runErr != nil {
		res.Correct = false
		msg := runErr.Error()
		if len(msg) > 300 {
			msg = msg[:300] + "..."
		}
		info["error"] = msg
		fmt.Fprintln(os.Stderr, "perfbench:", msg)
	}
	infoLine, _ := json.Marshal(info)
	fmt.Println(string(infoLine))
	if runErr != nil {
		// A failed run prints no result line: a wrong or unmeasurable
		// run must not be mistaken for a measurement.
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// endToEnd lists the end-to-end metrics every untraced run reports, with
// their units; BENCHMARK.json lists the same.
var endToEnd = []struct{ name, unit string }{
	{"sim_minstr_per_s", "Minstr/s"},
	{"requests_per_s", "1/s"},
	{"submit_p50_ms", "ms"},
	{"submit_p90_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
	{"gaze_speedup_geomean", "x"},
	{"gaze_accuracy", "ratio"},
	{"gaze_coverage", "ratio"},
}

func endToEndMetrics(out *outcome, m map[string]metric) error {
	if len(out.rounds) == 0 {
		return fmt.Errorf("the timed phase completed no round")
	}
	ips, rps := roundRates(out.rounds)
	vals := map[string]float64{
		"sim_minstr_per_s": median(ips) / 1e6,
		"requests_per_s":   median(rps),
		"peak_rss_mb":      peakRSSMB(),
		"setup_s":          median(out.setups),
	}
	for _, q := range []struct {
		name    string
		samples []float64
		p       float64
	}{
		{"submit_p50_ms", out.submits, 0.5},
		{"submit_p90_ms", out.submits, 0.9},
		{"read_p50_ms", out.reads, 0.5},
		{"read_p99_ms", out.reads, 0.99},
	} {
		v, err := percentile(q.samples, q.p)
		if err != nil {
			return fmt.Errorf("%s: %w", q.name, err)
		}
		vals[q.name] = v
	}
	gs, err := out.ref.gaze()
	if err != nil {
		return err
	}
	for k, v := range gs {
		vals[k] = v
	}
	for _, e := range endToEnd {
		v, ok := vals[e.name]
		if !ok || !(v > 0) {
			return fmt.Errorf("metric %s missing or not positive (%v)", e.name, v)
		}
		m[e.name] = metric{Value: v, Unit: e.unit}
	}
	return nil
}

func perLayerMetrics(out *outcome, m map[string]metric) error {
	for k, v := range out.ref.simCounts() {
		out.layer[k] = v
	}
	for _, l := range perLayer() {
		v, ok := out.layer[l.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", l.name)
		}
		m[l.name] = metric{Value: v, Unit: l.unit}
	}
	return nil
}

// hostMeta is recorded with every result.
type hostMeta struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Nproc      int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func hostInfo() hostMeta {
	h := hostMeta{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Nproc:      runtime.NumCPU(),
		GoVersion:  runtime.Version(),
	}
	if out, err := exec.Command("nproc").Output(); err == nil {
		if n, err := strconv.Atoi(strings.TrimSpace(string(out))); err == nil && n > 0 {
			h.Nproc = n
		}
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return h
}

// peakRSSMB returns the process's peak resident set (VmHWM), mapped
// trace pages included.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

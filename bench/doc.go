// Package bench holds the tier-1 zero-allocation pins of the simulation
// hot path: the steady-state step over heap slices and mapped slabs, with
// every evaluated prefetcher and with the observability layer armed, and
// the prefetch queue. Host-time performance is measured by the repository
// benchmark (python3 perfbench/run.py), not here; see DESIGN.md §4
// "Benchmarks and profiling".
package bench

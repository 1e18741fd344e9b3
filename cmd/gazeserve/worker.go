// Worker mode: gazeserve -worker <coordinator-url> runs no HTTP
// listener. It interrogates the coordinator for the scale to build a
// compatible engine, registers, and then leases, executes and uploads
// work units until SIGINT/SIGTERM. Stopping is always safe — in-flight
// leases expire on the coordinator and re-lease elsewhere, and a result
// that races a re-leased copy commits identical bytes.
package main

import (
	"context"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/traceset"
	"repro/internal/workload"
)

// runWorker is the -worker entry point; its return value is the process
// exit code. A worker keeps no result store or trace registry unless
// pointed at one explicitly: on a shared machine the default directories
// would interleave with a coordinator's, and the coordinator's store is
// the authoritative one anyway.
func runWorker(url string, conc int, name, cacheDir string, noCache bool, traceDir string, engWorkers int, telInterval uint64, logger *slog.Logger, tracer *obs.Tracer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := cluster.NewClient(url, cluster.ClientOptions{})
	info, err := infoWithRetry(ctx, client)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gazeserve: fetching coordinator info from %s: %v\n", url, err)
		return 1
	}
	if info.StoreSchemaVersion != engine.StoreSchemaVersion {
		fmt.Fprintf(os.Stderr, "gazeserve: coordinator runs store schema v%d, this binary v%d\n",
			info.StoreSchemaVersion, engine.StoreSchemaVersion)
		return 1
	}
	logger.Info("worker mode", "coordinator", url, "scale", fmt.Sprintf("%+v", info.Scale),
		"lease_ttl", time.Duration(info.LeaseTTLMS)*time.Millisecond)

	// Telemetry arms on the worker too: its engine is the one computing,
	// so the timeline is collected here and uploaded beside the result.
	opts := engine.Options{Scale: info.Scale, Workers: engWorkers, TelemetryInterval: telInterval}
	if cacheDir != "" && !noCache {
		store, err := engine.Open(cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		opts.Store = store
		logger.Info("worker result store open", "dir", store.Dir(), "entries", store.Len())
	}
	eng := engine.New(opts)

	var reg *traceset.Registry
	if traceDir != "" && traceDir != "none" {
		reg, err = traceset.Open(traceDir, traceset.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		// Registering the registry as a workload source is what lets the
		// engine materialize replicated `ingested:<addr>` traces.
		workload.RegisterSource(reg)
		logger.Info("worker trace registry open", "dir", traceDir, "traces", reg.Len())
	}

	w := cluster.NewWorker(cluster.WorkerOptions{
		Client:      client,
		Engine:      eng,
		Registry:    reg,
		Concurrency: conc,
		Name:        name,
		Logger:      logger,
		Tracer:      tracer,
	})
	if err := w.Run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "gazeserve: worker: %v\n", err)
		return 1
	}
	c := w.Counters()
	logger.Info("worker done", "completed", c.Completed, "failed", c.Failed, "replicated", c.Replicated)
	return 0
}

// infoWithRetry keeps asking for the coordinator document until it
// answers or ctx ends — workers routinely start before (or restart
// during) the coordinator, and dying on a connection refusal would turn
// every coordinator deploy into a fleet restart.
func infoWithRetry(ctx context.Context, client *cluster.Client) (cluster.Info, error) {
	for {
		info, err := client.Info(ctx)
		if err == nil || ctx.Err() != nil {
			return info, err
		}
		slog.Warn("coordinator not reachable yet", "error", err)
		if serr := cluster.RealClock.Sleep(ctx, 2*time.Second); serr != nil {
			return cluster.Info{}, err
		}
	}
}

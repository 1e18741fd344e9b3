// Command gazeserve serves simulations over HTTP, batching every request
// through one shared experiment engine so concurrent and repeated queries
// coalesce onto memoized — and disk-persisted — results.
//
// Usage:
//
//	gazeserve                         # listen on :8321, standard scale
//	gazeserve -addr :9000 -scale quick
//	gazeserve -no-cache               # in-memory memoization only
//	gazeserve -jobs-workers 4 -jobs-dir /var/lib/gaze/jobs
//	gazeserve -trace-dir /var/lib/gaze/traces -trace-cache-mb 4096
//	gazeserve -coordinator -lease-ttl 15s      # serve jobs-manager work to cluster workers
//	gazeserve -worker http://coord:8321 -worker-concurrency 4   # execute leased units (no listener)
//
// Endpoints:
//
//	GET  /healthz           liveness probe
//	GET  /readyz            readiness probe (store reachable, jobs accepting)
//	GET  /cluster           coordinator status (workers, leases, counters)
//	GET  /traces            workload catalogue + ingested traces (?suite= filters)
//	POST /traces            ingest a trace (gztr/champsim, optionally gzipped) → 201 + address
//	GET  /traces/{addr}         ingested-trace manifest
//	GET  /traces/{addr}/data    export (?format=gztr|champsim[.gz])
//	DELETE /traces/{addr}       delete (409 while referenced by live work)
//	GET  /prefetchers       the paper's evaluated prefetcher names
//	GET  /stats             engine scale + cache counters + store size/schema + jobs counters
//	GET  /metrics           the same /stats snapshot in Prometheus text format, plus latency histograms
//	GET  /analytics/matrix  cached metric matrix over completed results (ETag/304)
//	GET  /analytics/speedup cached speedup matrix + per-prefetcher geomeans (ETag/304)
//	GET  /analytics/timeline           per-prefetcher interval-timeline overlay for one trace
//	GET  /results/{addr}/timeline      one run's interval telemetry (?format=json|csv)
//	POST /admin/gc          one result-store GC cycle ({"max_age":"30m"} optional)
//	POST /simulate          {"trace","prefetcher","l2","cores","overrides"} → §IV-A3 metrics
//	POST /sweep             {"suite"|"traces","prefetchers","overrides","axis"} → rows + geomeans
//	POST /jobs              {"type":"sweep"|"simulate","priority","request":{...}} → 202 + id
//	GET  /jobs[/{id}]       job list / status+progress+ETA
//	GET  /jobs/{id}/result  finished job's response document
//	GET  /jobs/{id}/events  NDJSON progress stream
//	DELETE /jobs/{id}       cooperative cancel
//
// Scenarios are declarative: "overrides" perturbs the Table II system
// (LLC/L2 size, DRAM MTPS, prefetch queue, instruction budgets) and
// "axis" walks one of those knobs over a value list, reproducing the
// paper's Fig 16 sensitivity curves in a single request. Synchronous
// /simulate and /sweep abort at the next job boundary when the client
// disconnects; POST /jobs runs the same requests as durable background
// jobs that survive a restart (queued jobs resume from the journal,
// crashed-while-running ones are surfaced as interrupted).
//
// On SIGINT/SIGTERM the server shuts down gracefully: in-flight HTTP
// requests finish, running jobs drain (up to -drain, then they are
// cancelled and journaled interrupted), and the job journal is flushed.
//
// Cluster mode: -coordinator mounts the /cluster API and dispatches
// every background job's engine work to registered workers as
// content-addressed leases. -worker <url> runs no HTTP listener at all —
// it boots an engine from the coordinator's advertised scale, then
// leases, executes and uploads until stopped. Workers lease work, so a
// fleet scales by just starting more of them; killing one mid-batch is
// safe (its leases expire and re-lease, and duplicate results are
// byte-identical by content addressing).
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/traceset"
	"repro/internal/workload"
)

func main() {
	var (
		addr        = flag.String("addr", ":8321", "listen address")
		scale       = flag.String("scale", "standard", "quick | standard | full")
		cacheDir    = flag.String("cache-dir", "", "result store directory (default: $GAZE_CACHE_DIR or the user cache dir)")
		noCache     = flag.Bool("no-cache", false, "disable the persisted result store")
		workers     = flag.Int("workers", 0, "concurrent simulations (0 = GOMAXPROCS)")
		telInterval = flag.Uint64("telemetry-interval", sim.DefaultTelemetryInterval, "interval-telemetry sampling period in measured instructions per core (0 = disabled)")
		jobsWorkers = flag.Int("jobs-workers", 2, "concurrently running background jobs")
		jobsQueue   = flag.Int("jobs-queue", 64, "max queued background jobs")
		jobsDir     = flag.String("jobs-dir", "", `job journal directory ("" = beside the result store, "none" = not durable)`)
		traceDir    = flag.String("trace-dir", "", `ingested-trace registry directory ("" = beside the result store, "none" = disabled)`)
		traceCache  = flag.Int64("trace-cache-mb", 2048, "materialized-trace cache budget in MB (0 = unbounded)")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget for in-flight requests and running jobs")
		admitRPS    = flag.Float64("admit-rps", 0, "per-client admitted requests/second on POST /simulate, /sweep and /jobs (0 = no admission control)")
		admitBurst  = flag.Int("admit-burst", 8, "per-client burst allowance for -admit-rps")
		gcAge       = flag.Duration("store-gc-age", 14*24*time.Hour, "result-store GC age floor: entries modified within this window are kept")
		gcEvery     = flag.Duration("store-gc-every", 0, "run result-store GC on this period (0 = only on demand via -store-gc or POST /admin/gc)")
		gcNow       = flag.Bool("store-gc", false, "run one result-store GC cycle at startup")
		coordinator = flag.Bool("coordinator", false, "serve the /cluster API and dispatch background jobs to registered workers")
		workerURL   = flag.String("worker", "", "run as a cluster worker against the coordinator at this URL (no HTTP listener)")
		workerConc  = flag.Int("worker-concurrency", 0, "units a worker executes in parallel (0 = GOMAXPROCS)")
		workerName  = flag.String("worker-name", "", "worker label in the coordinator's roster")
		leaseTTL    = flag.Duration("lease-ttl", 15*time.Second, "coordinator lease/liveness deadline, renewed by worker heartbeats")
		logFormat   = flag.String("log-format", "text", "structured-log encoding: text | json")
		traceLog    = flag.String("trace-log", "", "append every finished span as one NDJSON line to this file")
		traceRing   = flag.Int("trace-ring", 512, "spans kept in memory for GET /debug/traces (0 = default)")
		noTrace     = flag.Bool("no-trace", false, "disable span tracing (histograms and /metrics stay on)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof and expvar on this separate listener (keep it private)")
	)
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, *logFormat)
	slog.SetDefault(logger)
	var tracer *obs.Tracer
	if !*noTrace {
		var cleanup func()
		var err error
		tracer, cleanup, err = buildTracer(*traceRing, *traceLog, logger)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer cleanup()
	}
	if *debugAddr != "" {
		startDebugListener(*debugAddr, logger)
	}

	if *workerURL != "" {
		os.Exit(runWorker(*workerURL, *workerConc, *workerName, *cacheDir, *noCache, *traceDir, *workers, *telInterval, logger, tracer))
	}

	// One histogram bundle feeds every layer: the engine's phase
	// durations, the jobs queue-wait, the coordinator's lease holds and
	// the server's per-route HTTP family all render on GET /metrics.
	metrics := obs.NewMetrics()

	// Generous by default, but bounded: synthetic slabs are small, while
	// ingested real traces can be arbitrarily large — an unbounded cache
	// would grow with every distinct uploaded trace for the life of the
	// server.
	if *traceCache > 0 {
		workload.SetTraceCacheBudget(*traceCache << 20)
	}

	sc, err := engine.ScaleByName(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	opts := engine.Options{
		Scale: sc, Workers: *workers, Phases: metrics.EnginePhase,
		TelemetryInterval: *telInterval,
	}
	if !*noCache {
		store, err := engine.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		opts.Store = store
		logger.Info("result store open", "dir", store.Dir(), "entries", store.Len())
	}
	eng := engine.New(opts)

	// The coordinator is built before the jobs manager so job execution
	// can be routed through it: with -coordinator, every background job's
	// engine work is handed to cluster workers as content-addressed
	// leases instead of running on this process's engine.
	var coord *cluster.Coordinator
	if *coordinator {
		coord = cluster.NewCoordinator(cluster.CoordinatorOptions{
			Engine:    eng,
			LeaseTTL:  *leaseTTL,
			Tracer:    tracer,
			LeaseHold: metrics.LeaseHold,
		})
	}

	// The trace registry follows the jobs-dir convention below: a durable
	// sibling of the result store ("<store>.traces") unless pointed
	// elsewhere or disabled. Registering it as a workload source is what
	// lets every entry point run `ingested:<address>` names. It opens
	// BEFORE the jobs manager: recovered jobs recompile at Open, and a job
	// over an ingested trace only validates once the registry is a source.
	var reg *traceset.Registry
	tdir := *traceDir
	switch {
	case tdir == "none":
		tdir = ""
	case tdir == "" && opts.Store != nil:
		tdir = opts.Store.Dir() + ".traces"
	case tdir == "":
		tdir = engine.DefaultDir() + ".traces"
	}
	if tdir != "" {
		reg, err = traceset.Open(tdir, traceset.Options{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		workload.RegisterSource(reg)
		logger.Info("trace registry open", "dir", tdir, "traces", reg.Len())
	}

	// The job journal lives beside the result store by default — a
	// sibling "<store>.jobs", NOT inside it: the store sweeps its own
	// directory for stale-schema .json garbage at Open and would eat
	// persisted job results nested under it.
	dir := *jobsDir
	switch {
	case dir == "none":
		dir = ""
	case dir == "" && opts.Store != nil:
		dir = opts.Store.Dir() + ".jobs"
	case dir == "":
		dir = engine.DefaultDir() + ".jobs"
	}
	jobOpts := jobs.Options{
		Engine:     eng,
		Compile:    server.Compiler(eng),
		Dir:        dir,
		Workers:    *jobsWorkers,
		QueueDepth: *jobsQueue,
		Tracer:     tracer,
		QueueWait:  metrics.JobQueueWait,
	}
	if coord != nil {
		jobOpts.Execute = coord.Execute
	}
	mgr, err := jobs.Open(jobOpts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if dir != "" {
		c := mgr.Counters()
		logger.Info("job journal open", "dir", dir, "recovered", c.Recovered, "interrupted", c.Interrupted)
	}

	srvHandle := server.New(eng).AttachJobs(mgr).
		SetMetrics(metrics).SetRequestLogger(logger)
	if tracer != nil {
		srvHandle.AttachTracer(tracer)
	}
	if coord != nil {
		srvHandle.AttachCluster(coord)
		logger.Info("cluster coordinator enabled", "lease_ttl", coord.LeaseTTL())
	}
	if reg != nil {
		srvHandle.AttachTraces(reg)
	}

	srvHandle.SetGCAge(*gcAge)
	if *admitRPS > 0 {
		srvHandle.SetAdmission(*admitRPS, *admitBurst)
		logger.Info("admission control enabled", "rps", *admitRPS, "burst", *admitBurst)
	}
	if *gcNow && opts.Store != nil {
		if st, err := srvHandle.RunGC(*gcAge); err != nil {
			logger.Error("store gc failed", "error", err)
		} else {
			logger.Info("store gc done", "reclaimed_entries", st.Deleted, "reclaimed_bytes", st.ReclaimedBytes,
				"kept_referenced", st.KeptReferenced, "kept_young", st.KeptYoung)
		}
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           srvHandle.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Lease expiry must not depend on a surviving worker happening to
	// poll: the coordinator ticks at half the TTL so a silent worker's
	// units requeue on the coordinator's own clock.
	if coord != nil {
		go func() {
			t := time.NewTicker(coord.LeaseTTL() / 2)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					coord.Tick()
				}
			}
		}()
	}

	// Periodic collection shares RunGC with POST /admin/gc, so it honors
	// the same ref sources (live job plans, cached analytics documents).
	if *gcEvery > 0 && opts.Store != nil {
		go func() {
			t := time.NewTicker(*gcEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if st, err := srvHandle.RunGC(*gcAge); err != nil {
						logger.Error("store gc failed", "error", err)
					} else if st.Deleted > 0 {
						logger.Info("store gc done", "reclaimed_entries", st.Deleted, "reclaimed_bytes", st.ReclaimedBytes)
					}
				}
			}
		}()
		logger.Info("periodic store gc scheduled", "every", *gcEvery, "age_floor", *gcAge)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "scale", *scale)

	select {
	case err := <-errc:
		logger.Error("http server failed", "error", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	logger.Info("shutting down", "drain", *drain)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	// Drain running jobs on the remaining budget, then flush the journal;
	// queued jobs stay journaled and resume on the next start.
	if err := mgr.Shutdown(shutdownCtx); err != nil {
		logger.Warn("jobs shutdown", "error", err)
	}
	logger.Info("bye")
}

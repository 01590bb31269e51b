// Command flovd is the simulation-serving daemon: a long-lived HTTP
// service over the sweep engine, for workloads that issue many small
// simulation requests programmatically (design-space exploration,
// dashboards) and want a shared result cache instead of per-process
// cold starts.
//
//	flovd -addr :8080                      # serve with the default cache
//	flovsweep -server http://host:8080 ... # delegate a sweep to it
//
// API: POST /v1/sweeps (async submit), POST /v1/sweeps/run (NDJSON
// stream), GET /v1/sweeps/{id}[/stream[?from=N]|/results], /metrics,
// /debug/events, /healthz. Admission is bounded: when -queue jobs are
// waiting, submissions get 429 instead of unbounded buffering. SIGTERM
// drains gracefully: stop admitting, finish (or after -drain-grace,
// cancel) in-flight jobs, then exit.
//
// Cluster modes (see internal/cluster): any number of processes share a
// persistent job store on one directory.
//
//	flovd -frontend -store /srv/flov -addr :8080   # stateless front door
//	flovd -worker   -store /srv/flov               # execution node
//
// Front doors serve the same /v1/sweeps API and wire types as a
// single-node flovd, so the Go client and `flovsweep -server` work
// against either. They admit jobs (per-tenant quotas and rate limits,
// 429 + Retry-After when throttled) and serve streams replayed from the
// store's one event log per job, resumable with ?from=N; front-door
// jobs are durable, so a dropped /run stream never cancels one.
// Workers lease jobs, execute them through the sweep engine, work-steal
// expired leases by adopting checkpoints, and share one result cache in
// the store (<store>/cache), so a row any worker simulated is a hit on
// every other. The same spec produces byte-identical rows on any
// topology.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flov/internal/cluster"
	"flov/internal/service"
	"flov/internal/sweep"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	queue := flag.Int("queue", 16, "max queued jobs before submissions are rejected with 429")
	runners := flag.Int("runners", 1, "concurrently executing jobs")
	workers := flag.Int("workers", 0, "engine worker goroutines per job (0 = GOMAXPROCS)")
	jobTimeout := flag.Duration("job-timeout", 15*time.Minute, "per-job execution ceiling (0 = none)")
	jobSlice := flag.Duration("job-slice", 0, "preemption time slice (worker mode): jobs running longer checkpoint to -store and release their lease (0 = run to completion)")
	retain := flag.Int("retain", 64, "finished jobs kept queryable")
	cacheDir := flag.String("cache-dir", "", "result cache directory (default: <store>/cache with -worker, else $FLOV_SWEEP_CACHE or the user cache dir)")
	noCache := flag.Bool("no-cache", false, "disable the shared result cache")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "how long SIGTERM waits for in-flight jobs before canceling them")
	enablePprof := flag.Bool("pprof", false, "mount /debug/pprof/")

	// Cluster modes.
	workerMode := flag.Bool("worker", false, "run as a cluster worker pulling leased jobs from -store")
	frontendMode := flag.Bool("frontend", false, "run as a stateless cluster front door over -store")
	storeDir := flag.String("store", "", "cluster job store directory (required with -worker/-frontend)")
	workerName := flag.String("worker-name", "", "worker identity in leases and events (default host-pid)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "job lease duration between renewals; a dead worker's job is stealable one TTL later")
	poll := flag.Duration("poll", 250*time.Millisecond, "idle store scan interval (worker mode)")
	tenantQuota := flag.Int("tenant-quota", 4, "max unfinished jobs per tenant (frontend mode)")
	tenantRate := flag.Int("tenant-rate", 120, "max submissions per minute per tenant (frontend mode)")
	flag.Parse()

	if *workerMode && *frontendMode {
		fatal(errors.New("-worker and -frontend are mutually exclusive; run two processes"))
	}
	if (*workerMode || *frontendMode) && *storeDir == "" {
		fatal(errors.New("-worker/-frontend require -store"))
	}
	if *jobSlice != 0 && !*workerMode {
		fatal(errors.New("-job-slice requires -worker: only cluster workers preempt jobs"))
	}

	if *workerMode {
		store, err := cluster.Open(*storeDir)
		if err != nil {
			fatal(err)
		}
		// Workers on one store share its cache unless told otherwise.
		dir := *cacheDir
		if dir == "" {
			dir = store.CacheDir()
		}
		runWorker(workerConfig{
			store: store, cache: openCache(dir, *noCache), name: *workerName,
			leaseTTL: *leaseTTL, poll: *poll, slice: *jobSlice,
			workers: *workers,
		})
		return
	}
	if *frontendMode {
		runFrontend(*storeDir, *addr, cluster.FrontDoorConfig{
			MaxActivePerTenant: *tenantQuota,
			RatePerMinute:      *tenantRate,
			JobTimeout:         *jobTimeout,
			Logf:               logf,
		})
		return
	}

	s := service.New(service.Config{
		QueueDepth:  *queue,
		Runners:     *runners,
		Workers:     *workers,
		JobTimeout:  *jobTimeout,
		RetainJobs:  *retain,
		Cache:       openCache(*cacheDir, *noCache),
		EnablePprof: *enablePprof,
	})

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "flovd: listening on %s\n", *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		// Listen failure (port in use): nothing to drain.
		s.Close()
		fatal(err)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "flovd: %v, draining (grace %v)\n", got, *drainGrace)
	}

	// Drain first: stop admitting, let in-flight jobs finish so their
	// streams complete; then shut the listener down (it waits for the
	// now-finishing handlers), then hard-stop whatever remains.
	graceCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := s.Drain(graceCtx); err != nil {
		fmt.Fprintf(os.Stderr, "flovd: drain grace expired, in-flight jobs canceled\n")
	}
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		_ = httpSrv.Close()
	}
	s.Close()
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "flovd: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "flovd:", err)
	os.Exit(1)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "flovd: "+format+"\n", args...)
}

// openCache opens the result cache (nil when disabled) and announces it.
func openCache(dir string, disabled bool) *sweep.Cache {
	cache, err := sweep.OpenCache(dir, disabled)
	if err != nil {
		fatal(err)
	}
	if cache != nil {
		logf("result cache at %s", cache.Dir())
	}
	return cache
}

type workerConfig struct {
	store    *cluster.Store
	cache    *sweep.Cache
	name     string
	leaseTTL time.Duration
	poll     time.Duration
	slice    time.Duration
	workers  int
}

// runWorker executes leased jobs from the shared store until SIGTERM.
// Shutdown is graceful by lease release: in-flight points checkpoint to
// the store and the lease expires immediately, so surviving workers
// continue from those checkpoints without waiting out the TTL.
func runWorker(cfg workerConfig) {
	name := cfg.name
	if name == "" {
		host, herr := os.Hostname()
		if herr != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &cluster.Worker{
		Store:    cfg.store,
		Cache:    cfg.cache,
		Name:     name,
		LeaseTTL: cfg.leaseTTL,
		Poll:     cfg.poll,
		Slice:    cfg.slice,
		Workers:  cfg.workers,
		Logf:     logf,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logf("worker %s: store %s", name, cfg.store.Dir())
	_ = w.Run(ctx) // returns only when ctx is canceled

	claimed, stolen, finished, preempted := w.Counters()
	var hits, misses, writes int64
	if cfg.cache != nil {
		hits, misses, writes = cfg.cache.Counters()
	}
	logf("worker %s: bye (claimed %d, stolen %d, finished %d, preempted %d; cache %d hits, %d misses, %d writes)",
		name, claimed, stolen, finished, preempted, hits, misses, writes)
}

// runFrontend serves the stateless cluster API until SIGTERM. All job
// state is in the store, so front doors need no drain protocol: clients
// reconnect to any front door and resume their streams with ?from=N.
func runFrontend(storeDir, addr string, cfg cluster.FrontDoorConfig) {
	store, err := cluster.Open(storeDir)
	if err != nil {
		fatal(err)
	}
	fd := cluster.NewFrontDoor(store, cfg)
	srv := &http.Server{
		Addr:              addr,
		Handler:           fd.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	logf("frontend: listening on %s over store %s", addr, storeDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal(err)
	case got := <-sig:
		logf("frontend: %v, shutting down", got)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		_ = srv.Close()
	}
	logf("frontend: bye")
}

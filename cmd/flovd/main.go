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
//	flovd -worker   -store /srv/flov \
//	      -cache-addr :8091 -peers http://node2:8091  # execution node
//
// Front doors serve the same /v1/sweeps API and wire types as a
// single-node flovd, so the Go client and `flovsweep -server` work
// against either. They admit jobs (per-tenant quotas and rate limits,
// 429 + Retry-After when throttled) and serve streams replayed from the
// store's one event log per job, resumable with ?from=N; front-door
// jobs are durable, so a dropped /run stream never cancels one.
// Workers lease jobs, execute them through the sweep engine, work-steal
// expired leases by adopting checkpoints, and federate their result
// caches over -cache-addr/-peers. The same spec produces byte-identical
// rows on any topology.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
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
	jobSlice := flag.Duration("job-slice", 0, "preemption time slice: jobs running longer checkpoint and requeue (0 = run to completion)")
	retain := flag.Int("retain", 64, "finished jobs kept queryable")
	cacheDir := flag.String("cache-dir", "", "result cache directory (default $FLOV_SWEEP_CACHE or the user cache dir)")
	noCache := flag.Bool("no-cache", false, "disable the shared result cache")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "how long SIGTERM waits for in-flight jobs before canceling them")
	enablePprof := flag.Bool("pprof", false, "mount /debug/pprof/")

	// Cluster modes.
	workerMode := flag.Bool("worker", false, "run as a cluster worker pulling leased jobs from -store")
	frontendMode := flag.Bool("frontend", false, "run as a stateless cluster front door over -store")
	storeDir := flag.String("store", "", "cluster job store directory (required with -worker/-frontend)")
	peers := flag.String("peers", "", "comma-separated peer cache base URLs for federation (worker mode)")
	cacheAddr := flag.String("cache-addr", "", "serve this node's cache to peers on this address (worker mode)")
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

	var cache *sweep.Cache
	if !*noCache {
		dir := *cacheDir
		if dir == "" {
			var err error
			if dir, err = sweep.DefaultDir(); err != nil {
				fatal(err)
			}
		}
		var err error
		if cache, err = sweep.NewCache(dir); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "flovd: result cache at %s\n", dir)
	}

	if *workerMode {
		runWorker(workerConfig{
			storeDir: *storeDir, cache: cache, peers: *peers,
			cacheAddr: *cacheAddr, name: *workerName,
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
		JobSlice:    *jobSlice,
		RetainJobs:  *retain,
		Cache:       cache,
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

type workerConfig struct {
	storeDir  string
	cache     *sweep.Cache
	peers     string
	cacheAddr string
	name      string
	leaseTTL  time.Duration
	poll      time.Duration
	slice     time.Duration
	workers   int
}

// runWorker executes leased jobs from the shared store until SIGTERM.
// Shutdown is graceful by lease release: in-flight slices checkpoint
// (when -job-slice is set) and the lease expires immediately, so
// surviving workers continue without waiting out the TTL.
func runWorker(cfg workerConfig) {
	store, err := cluster.Open(cfg.storeDir)
	if err != nil {
		fatal(err)
	}
	name := cfg.name
	if name == "" {
		host, herr := os.Hostname()
		if herr != nil {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var peerList []string
	if cfg.peers != "" {
		peerList = strings.Split(cfg.peers, ",")
	}
	w := &cluster.Worker{
		Store:    store,
		Cache:    cfg.cache,
		Peers:    cluster.NewPeers(peerList),
		Name:     name,
		LeaseTTL: cfg.leaseTTL,
		Poll:     cfg.poll,
		Slice:    cfg.slice,
		Workers:  cfg.workers,
		Logf:     logf,
	}

	var cacheSrv *http.Server
	if cfg.cacheAddr != "" && cfg.cache != nil {
		cacheSrv = &http.Server{
			Addr:              cfg.cacheAddr,
			Handler:           cluster.CacheHandler(cfg.cache),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			if err := cacheSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logf("cache server: %v", err)
			}
		}()
		logf("worker %s: serving cache to peers on %s", name, cfg.cacheAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logf("worker %s: store %s, %d peer(s)", name, cfg.storeDir, w.Peers.Len())
	_ = w.Run(ctx) // returns only when ctx is canceled

	if cacheSrv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := cacheSrv.Shutdown(shutCtx); err != nil {
			_ = cacheSrv.Close()
		}
	}
	claimed, stolen, finished, preempted := w.Counters()
	logf("worker %s: bye (claimed %d, stolen %d, finished %d, preempted %d)",
		name, claimed, stolen, finished, preempted)
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

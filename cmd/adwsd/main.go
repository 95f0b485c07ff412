// Command adwsd serves named adws workloads as jobs over HTTP on a
// cluster of persistent worker pools, exercising the job-serving layer
// (routing, admission control, per-job stats) end to end. With the
// default -pools 1 it behaves as a single-pool daemon; with -pools N
// each submitted job is routed to one pool by the -policy router and
// /pools exposes the per-pool routing ledger.
//
// Endpoints:
//
//	POST /jobs            {"workload": "quicksort", "n": 500000, "key": "sort-a", ...}
//	GET  /jobs            all retained jobs
//	GET  /jobs/{id}       one job
//	GET  /pools           per-pool load, admission counters, routing ledger
//	GET  /healthz         liveness + admission state + watchdog verdicts
//	                      (503 while a stall verdict is active)
//	GET  /metrics         cluster registry (+ pool registry when -pools 1)
//	GET  /metrics?pool=i  pool i's registry
//	GET  /debug/sched     live per-worker scheduler state (?pool=i)
//	GET  /debug/fr        flight-recorder dump (?pool=i, ?format=chrome)
//	GET  /debug/pprof/    stdlib pprof index and profiles
//
// POST /jobs bodies are capped at 64 KiB (413 beyond it), and each
// workload's n at workload.MaxJobBytes of arrays (400 beyond it).
//
// Shutdown: SIGINT/SIGTERM drains in-flight jobs (bounded by -draintimeout)
// before closing the pools.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/parlab/adws"
)

// readHeaderTimeout bounds how long a client may take to send request
// headers, so idle or slow connections cannot pin server goroutines.
const readHeaderTimeout = 10 * time.Second

func main() {
	var (
		addr         = flag.String("addr", "localhost:7117", "listen address")
		schedName    = flag.String("sched", "adws", "scheduler: ws, adws, mlws, mladws")
		pools        = flag.Int("pools", 1, "pool count (shards)")
		policy       = flag.String("policy", adws.RouteAffinity, "routing policy: "+strings.Join(adws.RoutingPolicies(), ", "))
		workers      = flag.Int("workers", 0, "workers per pool (0: GOMAXPROCS)")
		poolWorkers  = flag.String("poolworkers", "", "comma-separated per-pool worker counts, overrides -pools/-workers (e.g. 4,4,8)")
		maxInFlight  = flag.Int("maxinflight", 0, "max concurrently running jobs per pool (0: one per worker)")
		maxQueue     = flag.Int("maxqueue", 0, "admission queue depth per pool (0: 4x maxinflight)")
		admission    = flag.String("admission", adws.AdmitFIFO, "admission policy per pool: fifo, slo")
		tenantRate   = flag.Float64("tenantrate", 0, "per-tenant submit rate in jobs/s under -admission=slo (0: unlimited)")
		tenantBurst  = flag.Float64("tenantburst", 0, "per-tenant token-bucket burst (0: max(1, rate))")
		seed         = flag.Uint64("seed", 1, "victim-selection seed")
		traceCap     = flag.Int("trace", 0, "enable per-pool tracing with this per-worker ring capacity (0: off)")
		traceMetrics = flag.Bool("tracemetrics", false, "expose trace-derived metrics on pool scrapes when idle (requires -trace)")
		frCap        = flag.Int("frcap", 0, "flight-recorder ring capacity per worker (0: default 4096; negative: disable)")
		frDir        = flag.String("frdir", "", "directory for watchdog flight-recorder dump files (default $ADWS_FR_DIR)")
		stallAfter   = flag.Duration("stallafter", 0, "watchdog worker-stall threshold (0: default 250ms)")
		noWatchdog   = flag.Bool("nowatchdog", false, "disable the stall/SLO watchdog")
		drainTimeout = flag.Duration("draintimeout", 30*time.Second, "max wait for in-flight jobs on shutdown")
	)
	flag.Parse()

	sched, err := parseScheduler(*schedName)
	if err != nil {
		log.Fatal(err)
	}
	counts, err := parsePoolWorkers(*poolWorkers, *pools, *workers)
	if err != nil {
		log.Fatal(err)
	}
	opts := []adws.Option{
		adws.WithScheduler(sched),
		adws.WithSeed(*seed),
		adws.WithAdmission(*maxInFlight, *maxQueue),
		adws.WithAdmissionPolicy(*admission),
		adws.WithTenantRateLimit(*tenantRate, *tenantBurst),
	}
	if *traceCap > 0 {
		opts = append(opts, adws.WithTracing(*traceCap))
	}
	if *frCap != 0 {
		opts = append(opts, adws.WithFlightRecorder(*frCap))
	}
	if *noWatchdog {
		opts = append(opts, adws.WithoutWatchdog())
	} else if *frDir != "" || *stallAfter > 0 {
		opts = append(opts, adws.WithWatchdog(adws.WatchdogConfig{
			DumpDir:    *frDir,
			StallAfter: *stallAfter,
		}))
	}
	cluster, err := adws.NewCluster(counts, *policy, opts...)
	if err != nil {
		log.Fatal(err)
	}

	d := newDaemon(cluster, *traceMetrics && *traceCap > 0)
	srv := &http.Server{Addr: *addr, Handler: d.handler(), ReadHeaderTimeout: readHeaderTimeout}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	log.Printf("adwsd: serving on http://%s (%s, %d pools, %d workers, policy %s, admission %s)",
		*addr, cluster.Pool(0).Scheduler(), cluster.NumPools(), cluster.Workers(),
		cluster.Policy(), cluster.Pool(0).AdmissionPolicy())

	select {
	case sig := <-stop:
		log.Printf("adwsd: %v, draining (timeout %v)", sig, *drainTimeout)
	case err := <-serveErr:
		log.Fatalf("adwsd: serve: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	_ = srv.Shutdown(ctx)
	if err := cluster.Drain(ctx); err != nil {
		log.Printf("adwsd: drain: %v (closing anyway)", err)
	}
	cluster.Close()
	log.Printf("adwsd: bye")
}

// parsePoolWorkers resolves the per-pool worker counts: an explicit
// -poolworkers list wins; otherwise -pools copies of -workers.
func parsePoolWorkers(list string, pools, workers int) ([]int, error) {
	if list == "" {
		if pools < 1 {
			return nil, fmt.Errorf("adwsd: -pools must be at least 1, got %d", pools)
		}
		counts := make([]int, pools)
		for i := range counts {
			counts[i] = workers
		}
		return counts, nil
	}
	var counts []int
	for _, s := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("adwsd: bad -poolworkers entry %q (want non-negative ints)", s)
		}
		counts = append(counts, n)
	}
	return counts, nil
}

func parseScheduler(name string) (adws.Scheduler, error) {
	switch strings.ToLower(name) {
	case "ws":
		return adws.WorkStealing, nil
	case "adws":
		return adws.ADWS, nil
	case "mlws":
		return adws.MultiLevelWS, nil
	case "mladws":
		return adws.MultiLevelADWS, nil
	}
	return 0, fmt.Errorf("adwsd: unknown scheduler %q (want ws, adws, mlws, mladws)", name)
}

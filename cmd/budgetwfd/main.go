// Command budgetwfd serves the budget-aware scheduling engine over
// HTTP: POST a workflow, platform, algorithm and budget to /v1/schedule
// and get a plan back; POST a plan to /v1/simulate for stochastic
// aggregates; POST a generator family to /v1/sweep for a
// Figure-1-style budget sweep.
//
// Usage:
//
//	budgetwfd -addr :8080 -workers 4 -queue 64 -cache-size 512 -timeout 30s
//	budgetwfd -debug-addr 127.0.0.1:6060 # pprof + expvar on a separate private listener
//
// Cluster mode (see README "Operating the cluster"): start shard
// workers that register with the coordinator and heartbeat —
//
//	budgetwfd -addr :9091 -worker -coordinator http://c:8080 -advertise http://w1:9091
//	budgetwfd -addr :8080 -journal jobs.jsonl            # the coordinator
//
// The coordinator decomposes campaigns POSTed to /v1/jobs into
// deterministic shards, fans them out over the live fleet's
// POST /v1/shards (workers silent past -heartbeat-ttl stop receiving
// shards and their in-flight ones are speculatively re-issued), and
// merges the partial aggregates bit-identically to a single-process
// run. Static -peers still works and combines with dynamic
// registration. -worker widens the default -timeout to 10m (shards are
// long-running); every daemon always serves /v1/shards. A crashed
// coordinator restarted on the same -journal (or a standby started
// with -takeover) replays snapshot + tail and re-issues only the
// shards no worker acknowledged.
//
// Multi-tenant mode (see README "Multi-tenant service") mounts a
// continuously-running shared VM pool —
//
//	budgetwfd -pool -time-to-shutdown 360 -tenant-max-vms 16
//
// Tenants POST workflows to /v1/submit; idle VMs are leased across
// tenants within their already-paid billing period and deprovisioned
// when the next billing boundary is closer than -time-to-shutdown.
// Per-tenant billing ledgers appear at GET /v1/tenants and as
// per-tenant series in GET /metrics?format=prometheus.
//
// The daemon applies admission control (429 + Retry-After when the
// worker queue is full), caches plans by content hash, publishes its
// metrics document under expvar's "budgetwfd" (also at GET /metrics;
// ?format=prometheus for the text exposition), and drains
// gracefully on SIGINT/SIGTERM — in-flight async jobs are re-queued to
// the -journal so the next start resumes them.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"budgetwf/internal/dist"
	"budgetwf/internal/obs"
	"budgetwf/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "budgetwfd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("budgetwfd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "admission queue depth (-1 = no queue)")
	cacheSize := fs.Int("cache-size", 512, "plan cache entries (-1 = disable)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request timeout (-1s = none)")
	debugAddr := fs.String("debug-addr", "", "serve net/http/pprof and expvar on this separate listener (unauthenticated; bind to localhost or a private interface only)")
	traceRing := fs.Int("trace-ring", 64, "recent request traces retained for GET /v1/traces/{id} (-1 = disable retention)")
	drain := fs.Duration("drain", 10*time.Second, "graceful shutdown grace period")
	workerMode := fs.Bool("worker", false, "shard-worker mode: widen the default -timeout to 10m for long-running shards")
	peers := fs.String("peers", "", "comma-separated worker base URLs to shard async jobs across (e.g. http://w1:9090,http://w2:9090)")
	coordinator := fs.String("coordinator", "", "comma-separated coordinator base URLs to register this worker with (requires -advertise)")
	advertise := fs.String("advertise", "", "base URL other daemons should reach this one at (e.g. http://w1:9091)")
	heartbeatInterval := fs.Duration("heartbeat-interval", 2*time.Second, "worker registration heartbeat interval")
	heartbeatTTL := fs.Duration("heartbeat-ttl", 10*time.Second, "coordinator side: worker liveness TTL; silent workers turn suspect and their shards are re-issued")
	stealAfter := fs.Duration("steal-after", 30*time.Second, "coordinator side: in-flight shards older than this are speculatively re-executed elsewhere")
	journal := fs.String("journal", "", "async-job journal path; jobs survive crashes and draining restarts")
	takeover := fs.Bool("takeover", false, "adopt the -journal even if its lock names a live process (standby coordinator failover)")
	snapshotEvery := fs.Int("snapshot-every", 0, "compact the journal after this many tail records (0 = default 512, -1 = never)")
	maxJobs := fs.Int("max-jobs", 0, "retained async-job records (0 = default 256)")
	poolOn := fs.Bool("pool", false, "enable the multi-tenant shared-pool service (POST /v1/submit, GET /v1/tenants)")
	timeToShutdown := fs.Float64("time-to-shutdown", 0, "idle-VM release threshold in virtual seconds; an idle pooled VM is deprovisioned when the time to its next billing boundary drops below this (0 = 10% of -billing-quantum)")
	billingQuantum := fs.Float64("billing-quantum", 3600, "billing granularity of the shared pool's platform, in virtual seconds (VM lifetimes are billed in whole quanta; 0 = continuous per-second billing, which disables reuse)")
	tenantMaxVMs := fs.Int("tenant-max-vms", 16, "default fair-share cap on a tenant's concurrently provisioned VMs")
	tenantMaxQueued := fs.Int("tenant-max-queued", 8, "default fair-share cap on a tenant's concurrently queued-or-running workflows")
	poolSeed := fs.Uint64("pool-seed", 0, "seed for the shared pool's stochastic task-weight sampling")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workerMode && !flagSet(fs, "timeout") {
		*timeout = 10 * time.Minute
	}
	if *coordinator != "" && *advertise == "" {
		return fmt.Errorf("-coordinator requires -advertise (the URL coordinators should dispatch shards to)")
	}

	srv := server.New(server.Config{
		Addr:            *addr,
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheSize:       *cacheSize,
		RequestTimeout:  *timeout,
		TraceRingSize:   *traceRing,
		Peers:           splitPeers(*peers),
		HeartbeatTTL:    *heartbeatTTL,
		StealAfter:      *stealAfter,
		JournalPath:     *journal,
		JournalTakeover: *takeover,
		SnapshotEvery:   *snapshotEvery,
		MaxJobs:         *maxJobs,

		EnablePool:         *poolOn,
		PoolTimeToShutdown: *timeToShutdown,
		PoolBillingQuantum: *billingQuantum,
		TenantMaxVMs:       *tenantMaxVMs,
		TenantMaxQueued:    *tenantMaxQueued,
		PoolSeed:           *poolSeed,
	})
	srv.PublishExpvar("budgetwfd")
	if ps := splitPeers(*peers); len(ps) > 0 {
		fmt.Fprintf(os.Stderr, "budgetwfd: coordinating %d shard workers: %s\n", len(ps), strings.Join(ps, ", "))
	}
	if *workerMode {
		fmt.Fprintf(os.Stderr, "budgetwfd: worker mode, request timeout %s\n", *timeout)
	}
	if *poolOn {
		fmt.Fprintf(os.Stderr, "budgetwfd: shared pool enabled (billing quantum %gs, time to shutdown %gs, tenant caps %d VMs / %d queued)\n",
			*billingQuantum, *timeToShutdown, *tenantMaxVMs, *tenantMaxQueued)
	}

	if *debugAddr != "" {
		dbg := newDebugServer(*debugAddr)
		go func() {
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "budgetwfd: debug listener: %v\n", err)
			}
		}()
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "budgetwfd: debug endpoints (pprof, expvar) on %s\n", *debugAddr)
	}

	// Worker-side membership: register with every coordinator and keep
	// heartbeating so this daemon stays in the live fleet.
	var hbDone chan struct{}
	var hbCancel context.CancelFunc
	if *coordinator != "" {
		hbCtx, cancel := context.WithCancel(context.Background())
		hbCancel = cancel
		hbDone = make(chan struct{})
		// The worker's process-level flight recorder: heartbeat delivery
		// events accumulate on it, and its id rides every beat so
		// coordinators can correlate. It lives in this worker's own
		// trace ring under the fixed id "worker", queryable even after
		// every coordinator has forgotten this process.
		wt := obs.New("worker:" + strings.TrimRight(*advertise, "/"))
		wt.SetID("worker")
		wt.Root().Set(obs.Str("advertise", strings.TrimRight(*advertise, "/")))
		srv.Traces().Add(wt)
		hb := &dist.Heartbeat{
			Coordinators: splitPeers(*coordinator),
			Self:         strings.TrimRight(*advertise, "/"),
			Interval:     *heartbeatInterval,
			Span:         wt.Root(),
		}
		go func() { hb.Run(hbCtx); close(hbDone) }()
		fmt.Fprintf(os.Stderr, "budgetwfd: heartbeating to %s as %s every %s\n",
			strings.Join(splitPeers(*coordinator), ", "), *advertise, *heartbeatInterval)
	}
	stopHeartbeat := func() {
		if hbCancel != nil {
			hbCancel()
			<-hbDone // waits for the best-effort deregistration
			hbCancel = nil
		}
	}
	defer stopHeartbeat()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "budgetwfd: listening on %s\n", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "budgetwfd: %v, draining\n", sig)
		stopHeartbeat() // leave the fleet before shards stop being served
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-errc; err != nil && err != http.ErrServerClosed {
			return err
		}
		return nil
	}
}

// splitPeers parses the -peers list, trimming blanks so a trailing
// comma is harmless.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}

// flagSet reports whether the user set the named flag explicitly.
func flagSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// newDebugServer builds the optional -debug-addr listener: the full
// net/http/pprof surface plus the process's expvar page (which carries
// the daemon's "budgetwfd" metrics document). It is mounted on its own
// http.Server so the profiling surface never shares a port with the
// public API; nothing here is authenticated.
func newDebugServer(addr string) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
}

// Package server implements budgetwfd, the scheduling-as-a-service
// daemon: a stdlib-only HTTP/JSON layer over the budgetwf scheduling,
// simulation and experiment engines.
//
// Endpoints:
//
//	POST /v1/schedule   workflow + platform + algorithm + budget → plan
//	POST /v1/simulate   workflow + platform + plan → stochastic aggregates
//	POST /v1/sweep      generator family + budget grid → Figure-1-style sweep
//	POST /v1/jobs       async campaign (sweep/faultSweep/figure) → 202 {jobId}
//	GET  /v1/jobs       list async jobs
//	GET  /v1/jobs/{id}  job state, progress, result
//	DELETE /v1/jobs/{id} cancel a job
//	POST /v1/shards     evaluate one shard (worker side of distributed sweeps)
//	POST /v1/workers    register/heartbeat a worker (dynamic membership)
//	GET  /v1/workers    list registered workers and their health
//	DELETE /v1/workers  deregister a worker (?url=...)
//	GET  /v1/algorithms registered algorithms
//	GET  /healthz       liveness
//	GET  /readyz        readiness (503 while draining)
//	GET  /metrics       this server's metrics: JSON, or ?format=prometheus
//
// Production plumbing, which is the point of the package:
//
//   - a bounded worker pool with a bounded admission queue: overload
//     yields 429 + Retry-After instead of goroutine/memory blow-up;
//   - a content-addressed LRU plan cache keyed by the exact content of
//     (workflow, platform, algorithm, budget), with an alias from the
//     digest of a raw request body to its entry so that a byte-identical
//     repeat is answered unparsed, and hit/miss counters;
//   - per-request timeouts threaded through context into the planning
//     and simulation hot paths, and graceful shutdown that flips
//     /readyz, stops admission and drains in-flight work;
//   - panic-isolating middleware, structured request logs with request
//     IDs, and metrics declared once in an obs.Registry and served as
//     JSON or Prometheus text (request/status/algorithm counters,
//     per-endpoint latency histograms, cache hit rate, queue depth,
//     in-flight gauge).
package server

import (
	"context"
	"expvar"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"budgetwf/internal/dist"
	"budgetwf/internal/obs"
	"budgetwf/internal/online"
	"budgetwf/internal/platform"
	"budgetwf/internal/pool"
)

// Config parameterizes a Server. The zero value is usable: every
// field has a production-safe default.
type Config struct {
	// Addr is the listen address for ListenAndServe; default ":8080".
	Addr string
	// Workers bounds concurrently executing heavy requests; default
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds requests admitted but not yet running; beyond
	// it requests are rejected with 429. Default 64. Negative means 0
	// (admission requires an idle worker).
	QueueDepth int
	// CacheSize bounds the plan cache entry count; default 512, ≤ 0
	// after defaulting disables caching (set -1 to disable).
	CacheSize int
	// RequestTimeout bounds the server-side processing of one heavy
	// request; default 30s, negative disables.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds request bodies; default 32 MiB.
	MaxBodyBytes int64
	// TraceRingSize bounds how many recent request traces are retained
	// for GET /v1/traces/{requestId}; default 64, -1 disables retention
	// (inline ?trace=1 responses still work).
	TraceRingSize int
	// Peers lists worker base URLs ("http://host:9090") the async-job
	// coordinator shards campaigns across, in addition to any workers
	// that register dynamically via POST /v1/workers. Empty with no
	// registrations means jobs run locally, in-process.
	Peers []string
	// HeartbeatTTL is how long a registered worker stays live without a
	// heartbeat before it is marked suspect (no new shards, in-flight
	// ones speculatively re-issued); default 10s.
	HeartbeatTTL time.Duration
	// StealAfter is how long a dispatched shard may stay in flight
	// before an idle worker speculatively re-executes it; default 30s.
	StealAfter time.Duration
	// JournalPath, when set, persists the async-job log there so
	// acknowledged jobs survive a crash or a draining restart.
	JournalPath string
	// JournalTakeover adopts the journal even when its lock file names
	// a live process — the standby-coordinator failover path.
	JournalTakeover bool
	// SnapshotEvery compacts the journal (checkpoint to <path>.snap +
	// truncate) once its tail reaches this many records, bounding
	// restart replay; default 512, negative disables.
	SnapshotEvery int
	// MaxJobs bounds retained async-job records (running + terminal);
	// default 256.
	MaxJobs int
	// EnablePool mounts the multi-tenant shared-pool service
	// (POST /v1/submit, GET /v1/tenants): a continuously-running
	// virtual-time executor sharing billing-period VMs across tenants.
	// Off by default — the pool accumulates long-lived state a
	// stateless planning daemon should not hold by surprise.
	EnablePool bool
	// PoolTimeToShutdown is the idle-VM release threshold in virtual
	// seconds; 0 defaults to 10% of the billing quantum.
	PoolTimeToShutdown float64
	// PoolBillingQuantum is the billing granularity of the pool's
	// platform in virtual seconds; default 3600 (hourly billing, the
	// regime where sharing pays).
	PoolBillingQuantum float64
	// TenantMaxVMs and TenantMaxQueued are the default per-tenant
	// fair-share caps (concurrent VMs, concurrent queued-or-running
	// workflows) for tenants that don't set their own; defaults 16, 8.
	TenantMaxVMs    int
	TenantMaxQueued int
	// PoolSeed drives the pool's stochastic weight sampling.
	PoolSeed uint64
	// Logger receives structured request logs; default JSON to stderr.
	Logger *slog.Logger
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.CacheSize == 0 {
		c.CacheSize = 512
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RequestTimeout < 0 {
		c.RequestTimeout = 0
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.TraceRingSize == 0 {
		c.TraceRingSize = 64
	}
	if c.EnablePool && c.PoolBillingQuantum == 0 {
		c.PoolBillingQuantum = 3600
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return c
}

// Server is one budgetwfd instance.
type Server struct {
	cfg      Config
	log      *slog.Logger
	pool     *workerPool
	cache    *planCache
	metrics  *metrics
	traces   *obs.Ring
	jobs     *dist.Store
	coord    *dist.Coordinator
	journal  *dist.Journal
	registry *dist.Registry
	poolSvc  *pool.Service
	mux      *http.ServeMux
	ready    atomic.Bool
	reqSeq   atomic.Uint64
	nonce    string
	httpSrv  *http.Server
}

// New assembles a Server from the configuration. The returned server
// is ready: Handler can be mounted in a test immediately, or
// ListenAndServe called for real serving.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		log:    cfg.Logger,
		pool:   newWorkerPool(cfg.Workers, cfg.QueueDepth),
		cache:  newPlanCache(cfg.CacheSize),
		traces: obs.NewRing(cfg.TraceRingSize),
		nonce:  fmt.Sprintf("%x", time.Now().UnixNano()&0xffffff),
	}
	s.registry = dist.NewRegistry(cfg.HeartbeatTTL)
	s.coord = &dist.Coordinator{
		Workers:      cfg.Peers,
		Members:      s.registry.Live,
		StealAfter:   cfg.StealAfter,
		LocalWorkers: cfg.Workers,
		Logf: func(format string, args ...any) {
			s.log.Warn("coordinator: " + fmt.Sprintf(format, args...))
		},
	}
	// A journal that fails to open is logged, not fatal: the daemon
	// still serves, jobs just won't survive a restart. A journal held
	// by a live process is the exception — refusing to serve beats two
	// coordinators corrupting one log (-takeover overrides).
	var restored []dist.RestoredJob
	if cfg.JournalPath != "" {
		j, rs, err := dist.OpenJournal(cfg.JournalPath, dist.JournalOptions{Takeover: cfg.JournalTakeover})
		if err != nil {
			s.log.Error("job journal unavailable", "path", cfg.JournalPath, "error", err.Error())
		} else {
			s.journal = j
			restored = rs
		}
	}
	s.jobs = dist.NewStore(dist.StoreOptions{
		Run:           s.runJob,
		MaxJobs:       cfg.MaxJobs,
		Journal:       s.journal,
		SnapshotEvery: cfg.SnapshotEvery,
		Logf: func(format string, args ...any) {
			s.log.Warn("jobs: " + fmt.Sprintf(format, args...))
		},
	})
	if cfg.EnablePool {
		plat := platform.Default()
		plat.BillingQuantum = cfg.PoolBillingQuantum
		svc, err := pool.NewService(pool.Config{
			Platform:         plat,
			TimeToShutdown:   cfg.PoolTimeToShutdown,
			DefaultMaxVMs:    cfg.TenantMaxVMs,
			DefaultMaxQueued: cfg.TenantMaxQueued,
			Policy:           online.DefaultPolicy(0),
			Seed:             cfg.PoolSeed,
		})
		if err != nil {
			// A misconfigured pool disables the surface, not the daemon.
			s.log.Error("shared pool unavailable", "error", err.Error())
		} else {
			s.poolSvc = svc
		}
	}
	s.metrics = newMetrics(s)
	s.mux = http.NewServeMux()
	s.routes()
	s.jobs.Restore(restored)
	s.ready.Store(true)
	return s
}

// routes mounts every endpoint behind the middleware stack.
func (s *Server) routes() {
	s.mux.Handle("GET /healthz", s.wrap("healthz", s.handleHealthz))
	s.mux.Handle("GET /readyz", s.wrap("readyz", s.handleReadyz))
	s.mux.Handle("GET /v1/algorithms", s.wrap("algorithms", s.handleAlgorithms))
	s.mux.Handle("GET /metrics", s.wrap("metrics", s.handleMetrics))
	s.mux.Handle("GET /v1/traces", s.wrap("traces", s.handleTraceList))
	s.mux.Handle("GET /v1/traces/{id}", s.wrap("traces", s.handleTraceGet))
	s.mux.Handle("POST /v1/schedule", s.wrap("schedule", s.handleSchedule))
	s.mux.Handle("POST /v1/simulate", s.wrap("simulate", s.handleSimulate))
	s.mux.Handle("POST /v1/sweep", s.wrap("sweep", s.handleSweep))
	s.mux.Handle("POST /v1/jobs", s.wrap("jobs", s.handleJobSubmit))
	s.mux.Handle("GET /v1/jobs", s.wrap("jobs", s.handleJobList))
	s.mux.Handle("GET /v1/jobs/{id}", s.wrap("jobs", s.handleJobGet))
	s.mux.Handle("DELETE /v1/jobs/{id}", s.wrap("jobs", s.handleJobCancel))
	s.mux.Handle("POST /v1/shards", s.wrap("shards", s.handleShard))
	s.mux.Handle("POST /v1/workers", s.wrap("workers", s.handleWorkerRegister))
	s.mux.Handle("GET /v1/workers", s.wrap("workers", s.handleWorkerList))
	s.mux.Handle("DELETE /v1/workers", s.wrap("workers", s.handleWorkerDeregister))
	if s.poolSvc != nil {
		s.mux.Handle("POST /v1/submit", s.wrap("submit", s.handleSubmit))
		s.mux.Handle("GET /v1/tenants", s.wrap("tenants", s.handleTenants))
		s.mux.Handle("GET /v1/tenants/{id}", s.wrap("tenants", s.handleTenantGet))
	}
}

// Handler returns the root handler (for httptest and for embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Traces exposes the server's trace ring, so the daemon can seed it
// with process-level traces (a worker's heartbeat flight recorder).
func (s *Server) Traces() *obs.Ring { return s.traces }

// PublishExpvar publishes the server's metrics document into the global
// expvar namespace under the given name, once per process; repeated
// calls (or name collisions from tests) are ignored rather than
// panicking, as expvar.Publish would.
func (s *Server) PublishExpvar(name string) {
	if expvar.Get(name) == nil {
		expvar.Publish(name, s.metrics.reg)
	}
}

// ListenAndServe serves until Shutdown (which makes it return
// http.ErrServerClosed) or a listener error.
func (s *Server) ListenAndServe() error {
	s.httpSrv = &http.Server{
		Addr:              s.cfg.Addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s.httpSrv.ListenAndServe()
}

// Shutdown drains the server gracefully: /readyz starts returning 503
// (so load balancers stop routing here) and job submission closes,
// then in-flight async jobs get until ctx to finish — any still
// running are re-queued to the journal for the next process — then
// the HTTP listener stops accepting and waits for in-flight handlers
// within ctx, and finally the worker pool drains.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	if jerr := s.jobs.Drain(ctx); jerr != nil {
		s.log.Warn("drain: interrupted jobs re-queued to journal", "error", jerr.Error())
	}
	var err error
	if s.httpSrv != nil {
		err = s.httpSrv.Shutdown(ctx)
	}
	s.pool.close()
	if s.journal != nil {
		s.journal.Close()
	}
	return err
}

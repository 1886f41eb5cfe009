package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asap-go/asap"
	"github.com/asap-go/asap/internal/datasets"
	"github.com/asap-go/asap/internal/obs"
	"github.com/asap-go/asap/internal/obs/trace"
	"github.com/asap-go/asap/internal/plot"
	"github.com/asap-go/asap/internal/replica"
	"github.com/asap-go/asap/internal/stats"
	"github.com/asap-go/asap/internal/wal"
)

// DefaultMaxIngestBytes bounds one POST /ingest body when
// Config.MaxIngestBytes is zero.
const DefaultMaxIngestBytes = 32 << 20

// DefaultDrainTimeout bounds the graceful drain once Run's context
// ends, when Config.DrainTimeout is zero. Connections still open when
// it expires (a stuck client that never reads) are force-closed: one
// dead peer must never block shutdown forever.
const DefaultDrainTimeout = 5 * time.Second

// healthLagFloor: /readyz reports unready once the WAL has unsynced
// appends older than max(this floor, 10× the flush interval).
const healthLagFloor = 5 * time.Second

// readyRetryAfter is the Retry-After hint (seconds) sent with 503s
// that a client should ride out in place: a degraded WAL shard being
// reopened, an unready follower, a fenced write endpoint.
const readyRetryAfter = "1"

// Config configures a Server: the hub it fronts plus the optional
// built-in simulator.
type Config struct {
	Hub HubConfig
	// Simulate names a built-in dataset (e.g. "Taxi") to feed into
	// SimulateSeries at Rate points/sec while the server runs. Empty
	// disables the simulator.
	Simulate string
	// SimulateSeries is the series the simulator feeds. Empty means the
	// hub's default series.
	SimulateSeries string
	// Rate is the simulation rate in points per second (default 200).
	Rate int
	// DataDir enables the write-ahead log: every acknowledged ingest
	// batch is appended there before it is applied, and startup recovers
	// all series from it into warm Streamers. Empty runs memory-only.
	DataDir string
	// SegmentBytes rotates WAL segments at this size (default 8 MiB).
	SegmentBytes int64
	// FsyncEvery batches WAL fsyncs on this interval; 0 fsyncs on every
	// append (strict durability, slower ingest).
	FsyncEvery time.Duration
	// WALReopenRetries bounds the reopen attempts a degraded WAL shard
	// gets before it wedges permanently: 0 retries forever, negative
	// disables degraded mode entirely (the first durability failure
	// wedges the shard). See wal.Config.ReopenRetries.
	WALReopenRetries int
	// walFS and the reopen backoff overrides are test hooks: they let
	// the chaos suite inject scripted filesystem faults and compress the
	// reopen schedule without exporting knobs operators should not touch.
	walFS               wal.FS
	walReopenBackoff    time.Duration
	walReopenMaxBackoff time.Duration
	// MaxIngestBytes caps one POST /ingest body; larger bodies get 413.
	// Zero means DefaultMaxIngestBytes.
	MaxIngestBytes int64
	// Follow makes this server a read-only follower replicating the
	// given primary base URL's write-ahead log into DataDir (which is
	// then required). Reads serve locally with replication lag; writes
	// answer 503 pointing at the primary until POST /promote.
	Follow string
	// FollowPoll is the follower's manifest poll interval (default
	// 500ms).
	FollowPoll time.Duration
	// SnapshotInterval, when positive, compacts the WAL into a fresh
	// checkpoint on this interval — background snapshot scheduling
	// instead of operator-driven POST /snapshot only.
	SnapshotInterval time.Duration
	// SnapshotSegments, when positive, triggers a compaction as soon as
	// any shard holds at least this many sealed segments.
	SnapshotSegments int
	// MaxSubscribers caps concurrent GET /stream subscribers; beyond it
	// new streams get 503 + Retry-After. Zero means
	// DefaultMaxSubscribers.
	MaxSubscribers int
	// HeartbeatEvery is the SSE heartbeat-comment interval keeping
	// idle streams (and the proxies between them) alive. Zero means
	// DefaultHeartbeatEvery.
	HeartbeatEvery time.Duration
	// StallTimeout evicts a /stream subscriber whose pending frames
	// have waited this long undrained (a peer that stopped reading),
	// and bounds each SSE write. Zero means DefaultStallTimeout.
	StallTimeout time.Duration
	// DrainTimeout bounds the graceful connection drain at shutdown.
	// Zero means DefaultDrainTimeout.
	DrainTimeout time.Duration
	// Logger receives structured operational logs. Nil means
	// slog.Default().
	Logger *slog.Logger
	// PprofAddr, when non-empty, serves net/http/pprof on its own
	// listener at this address — never on the main mux, so profiling
	// stays off any port exposed to clients. Use a loopback address
	// (e.g. "127.0.0.1:6060").
	PprofAddr string
	// SelfMonitor feeds the server's own health gauges back through the
	// hub as __asap.* series (requests/sec, ingest points/sec, fsync
	// latency), so the dashboard streams an ASAP-smoothed view of the
	// server itself. Active only while this server is the primary.
	SelfMonitor bool
	// SelfMonitorEvery is the self-monitor sampling interval. Zero
	// means 1s.
	SelfMonitorEvery time.Duration
	// TraceSlow is the slow-request threshold: a completed trace whose
	// root latency reaches it is always retained by the tail sampler and
	// emits a structured slow-request log line with the span breakdown
	// inline. Zero means trace.DefaultSlow (250ms). Streaming routes
	// (/stream, /replica/segments) are exempt — their connection
	// lifetime is long by design.
	TraceSlow time.Duration
	// TraceSample records 1 in N requests that arrive without an
	// inbound sampled traceparent. Zero means 1 (record all — retention
	// is tail-based, so this only bounds span bookkeeping, not storage);
	// negative disables head sampling (only joined traces record).
	TraceSample int
}

// Server roles. A memory-only server still counts as primary: it
// accepts writes, it just has no log to ship.
const (
	rolePrimary int32 = iota
	roleFollower
	rolePromoting
)

// Server owns a Hub (and optionally its write-ahead log or a
// replication follower) and serves the asap-server HTTP API.
type Server struct {
	cfg       Config
	hub       *Hub
	sim       datasets.Spec
	lock      *wal.DirLock
	follower  *replica.Follower
	broadcast *Broadcast
	metrics   *serverMetrics
	tracer    *trace.Tracer
	logger    *slog.Logger

	// pprofAddr holds the profiling listener's resolved address (":0"
	// in tests) once Serve has it listening; empty otherwise.
	pprofAddr atomic.Value // string

	// wal is atomic because promotion attaches a log to a running
	// follower while readers (stats, healthz) are in flight.
	wal  atomic.Pointer[wal.Log]
	role atomic.Int32

	// appendVersion counts acknowledged WAL-visible appends; walChanged
	// wakes /replica/segments long-polls parked on an older version.
	appendVersion atomic.Int64
	walChanged    *notifier

	lastSnapshotNano atomic.Int64
	autoSnapshots    atomic.Int64
	autoSnapshotErrs atomic.Int64
}

// walOpenConfig assembles the wal.Config shared by both WAL attach
// points — New and promotion — so the durability, fault-injection, and
// reopen knobs cannot drift between them.
func walOpenConfig(cfg Config, shards, horizon int, onDurable func(), logf func(string, ...interface{}), m *wal.Metrics) wal.Config {
	return wal.Config{
		Dir:              cfg.DataDir,
		Shards:           shards,
		SegmentBytes:     cfg.SegmentBytes,
		FsyncEvery:       cfg.FsyncEvery,
		HorizonPoints:    horizon,
		OnDurable:        onDurable,
		Logf:             logf,
		Metrics:          m,
		FS:               cfg.walFS,
		ReopenRetries:    cfg.WALReopenRetries,
		ReopenBackoff:    cfg.walReopenBackoff,
		ReopenMaxBackoff: cfg.walReopenMaxBackoff,
	}
}

// walHorizon sizes WAL retention for a stream config: enough raw tail
// to rebuild a Streamer's aggregated ring (capacity panes of ratio
// points; stream.New clamps capacity to >= 4) plus the partial pane and
// the pane-alignment skip — capacity+2 panes covers all three.
func walHorizon(stream asap.StreamConfig) (int, error) {
	st, err := asap.NewStreamer(stream)
	if err != nil {
		return 0, err
	}
	ratio := st.Ratio()
	capacity := stream.WindowPoints / ratio
	if capacity < 4 {
		capacity = 4
	}
	return (capacity + 2) * ratio, nil
}

// New validates cfg and returns a Server ready to Run. With DataDir
// set it locks the directory and opens the WAL, warm-restoring every
// recovered series before returning, so the first request already sees
// pre-crash state. With Follow set it instead becomes a read-only
// follower of that primary (see newFollower).
func New(cfg Config) (*Server, error) {
	if cfg.MaxIngestBytes <= 0 {
		cfg.MaxIngestBytes = DefaultMaxIngestBytes
	}
	if cfg.Follow != "" {
		return newFollower(cfg)
	}
	s := &Server{logger: cfg.Logger, metrics: newServerMetrics(), tracer: newTracer(cfg)}
	s.attachBroadcast(&cfg)
	cfg.Hub.metrics = s.metrics.hub
	var wlog *wal.Log
	var lock *wal.DirLock
	if cfg.DataDir != "" {
		horizon, err := walHorizon(cfg.Hub.Stream)
		if err != nil {
			return nil, err
		}
		shards := cfg.Hub.Shards
		if shards <= 0 {
			shards = runtime.GOMAXPROCS(0)
		}
		if lock, err = wal.LockDir(cfg.DataDir); err != nil {
			return nil, err
		}
		wlog, err = wal.Open(walOpenConfig(cfg, shards, horizon,
			s.noteDurable, obs.Printf(s.log(), slog.LevelInfo, "wal"), s.metrics.wal))
		if err != nil {
			lock.Release()
			return nil, err
		}
		cfg.Hub.WAL = wlog
	}
	hub, err := NewHub(cfg.Hub)
	if err != nil {
		if wlog != nil {
			wlog.Close()
		}
		lock.Release()
		return nil, err
	}
	s.cfg, s.hub, s.lock = cfg, hub, lock
	s.wal.Store(wlog)
	s.role.Store(rolePrimary)
	s.lastSnapshotNano.Store(time.Now().UnixNano())
	s.metrics.bind(s)
	if cfg.Simulate != "" {
		spec, ok := datasets.ByName(cfg.Simulate)
		if !ok {
			s.Close() // release the WAL's flusher and segment files
			return nil, fmt.Errorf("unknown dataset %q", cfg.Simulate)
		}
		s.sim = spec
		if s.cfg.SimulateSeries == "" {
			s.cfg.SimulateSeries = hub.DefaultSeries()
		}
		if s.cfg.Rate <= 0 {
			s.cfg.Rate = 200
		}
		// time.Second / Rate must stay a positive ticker interval.
		if s.cfg.Rate > int(time.Second) {
			s.Close()
			return nil, fmt.Errorf("rate %d exceeds %d points/sec", s.cfg.Rate, int(time.Second))
		}
	}
	return s, nil
}

// attachBroadcast builds the broadcast registry and the replication
// change signal, then wires the frame hooks into the hub. It must run
// before NewHub(cfg.Hub) so the hub's first refresh already fans out.
func (s *Server) attachBroadcast(cfg *Config) {
	s.walChanged = newNotifier()
	s.broadcast = newBroadcast(broadcastConfig{
		maxSubscribers: cfg.MaxSubscribers,
		stallTimeout:   cfg.StallTimeout,
	})
	cfg.Hub.OnFrame = s.broadcast.Publish
	cfg.Hub.OnDrop = s.broadcast.PublishDrop
}

// noteDurable bumps the manifest version and wakes parked long-polls;
// the WAL calls it when its durable watermark advances (wal.Config.
// OnDurable). Keying on durability, not on appends, matters under
// batched fsync: the manifest only exposes fsynced bytes, so an
// append-time bump would wake a follower to an unchanged manifest and
// park it again with no later signal — stuck a flush behind until its
// fallback poll interval elapsed.
func (s *Server) noteDurable() {
	s.appendVersion.Add(1)
	s.walChanged.bump()
}

// log returns the configured structured logger, or slog's default.
func (s *Server) log() *slog.Logger {
	if s.logger != nil {
		return s.logger
	}
	return slog.Default()
}

// neverSlow is the SlowRoute threshold for connection-lifetime routes:
// an SSE stream or replication long-poll staying open for hours is
// healthy, not slow, so it must never trip tail retention.
const neverSlow = 100 * 365 * 24 * time.Hour

// newTracer builds the pipeline tracer from Config's trace knobs.
func newTracer(cfg Config) *trace.Tracer {
	return trace.New(trace.Config{
		Slow:      cfg.TraceSlow,
		HeadEvery: int64(cfg.TraceSample),
		SlowRoute: map[string]time.Duration{
			"/stream":           neverSlow,
			"/replica/segments": neverSlow,
			// The follower's poll parks inside the primary's long-poll hold;
			// its duration is the hold, not work.
			"replica.poll": neverSlow,
		},
	})
}

// logUnavailable is the one structured log line every 503 path emits,
// so a client retrying off Retry-After can be correlated server-side:
// route, request id, trace id, the refusal reason, and — when the
// cause is a degraded WAL shard — which shard and operation failed.
func (s *Server) logUnavailable(r *http.Request, reason string, err error) {
	attrs := make([]slog.Attr, 0, 8)
	attrs = append(attrs,
		slog.String("route", r.URL.Path),
		slog.Int("status", http.StatusServiceUnavailable),
		slog.String("reason", reason),
		slog.String("request_id", obs.RequestIDFrom(r.Context())),
	)
	if tid := trace.IDFromContext(r.Context()); tid != "" {
		attrs = append(attrs, slog.String("trace_id", tid))
	}
	var de *wal.DegradedError
	if errors.As(err, &de) {
		attrs = append(attrs, slog.Int("shard", de.Shard), slog.String("op", de.Op))
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
	}
	s.log().LogAttrs(r.Context(), slog.LevelWarn, "service unavailable", attrs...)
}

// Metrics exposes the server's observability registry — the /metrics
// source, also usable for embedding-side instruments.
func (s *Server) Metrics() *obs.Registry { return s.metrics.reg }

// PprofAddr returns the profiling listener's resolved address once
// Serve has it listening ("" when disabled or not yet up).
func (s *Server) PprofAddr() string {
	addr, _ := s.pprofAddr.Load().(string)
	return addr
}

// Hub exposes the underlying hub, mainly for tests and embedding.
func (s *Server) Hub() *Hub { return s.hub }

// Broadcast exposes the stream subscriber registry, mainly for tests.
func (s *Server) Broadcast() *Broadcast { return s.broadcast }

// curWAL returns the write-ahead log, nil when none is attached (a
// memory-only server, or a follower before promotion).
func (s *Server) curWAL() *wal.Log { return s.wal.Load() }

// Follower exposes the replication follower (nil unless Follow mode),
// mainly for tests.
func (s *Server) Follower() *replica.Follower { return s.follower }

// Role returns "primary", "follower", or "promoting".
func (s *Server) Role() string {
	switch s.role.Load() {
	case roleFollower:
		return "follower"
	case rolePromoting:
		return "promoting"
	default:
		return "primary"
	}
}

// WALStats reports the write-ahead log's counters; ok is false when
// the server runs memory-only (or as an unpromoted follower).
func (s *Server) WALStats() (st wal.Stats, ok bool) {
	w := s.curWAL()
	if w == nil {
		return wal.Stats{}, false
	}
	return w.Stats(), true
}

// Close disconnects every /stream subscriber, stops the replication
// follower (fsyncing its mirror), flushes and closes the write-ahead
// log, and releases the data-dir lock. Serve calls it on the way out;
// call it directly when driving the Handler without Serve. Idempotent.
func (s *Server) Close() error {
	if s.broadcast != nil {
		s.broadcast.Shutdown()
	}
	if s.follower != nil {
		s.follower.Stop()
	}
	var err error
	if w := s.curWAL(); w != nil {
		err = w.Close()
	}
	if rerr := s.lock.Release(); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// Handler returns the full asap-server route table, every route
// wrapped in the HTTP instrumentation middleware (request IDs, the
// in-flight gauge, per-route latency and status-class metrics). The
// patterns must stay in sync with routePatterns (metrics.go), which
// pre-registers each route's instruments.
func (s *Server) Handler() http.Handler {
	metricsHandler := s.metrics.reg.Handler()
	handlers := map[string]http.HandlerFunc{
		"/":                 s.handleIndex,
		"/ingest":           s.handleIngest,
		"/frame":            s.handleFrame,
		"/stream":           s.handleStream,
		"/series":           s.handleSeries,
		"/stats":            s.handleStats,
		"/plot.svg":         s.handlePlot,
		"/healthz":          s.handleHealthz,
		"/readyz":           s.handleReadyz,
		"/snapshot":         s.handleSnapshot,
		"/metrics":          metricsHandler.ServeHTTP,
		"/replica/segments": s.handleReplicaSegments,
		"/replica/segment":  s.handleReplicaSegment,
		"/promote":          s.handlePromote,
		"/traces":           s.handleTraces,
		"/traces/":          s.handleTraceByID,
	}
	mux := http.NewServeMux()
	for _, route := range routePatterns {
		mux.HandleFunc(route, s.instrument(route, handlers[route]))
	}
	return mux
}

// Run listens on addr and serves until ctx is cancelled, then drains
// in-flight requests (bounded by Config.DrainTimeout) and stops the
// simulator goroutine before returning.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is Run for a caller-provided listener (tests use :0). On
// return the write-ahead log has been flushed, fsynced, and closed.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer s.Close()

	var wg sync.WaitGroup
	if s.cfg.Simulate != "" {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.runSimulator(ctx)
		}()
	}
	if s.follower != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.follower.Run(ctx)
		}()
	}
	if s.cfg.SnapshotInterval > 0 || s.cfg.SnapshotSegments > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.snapshotLoop(ctx)
		}()
	}
	if s.cfg.SelfMonitor {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.selfMonitorLoop(ctx)
		}()
	}
	if s.cfg.PprofAddr != "" {
		stopPprof, err := s.servePprof(ctx, s.cfg.PprofAddr)
		if err != nil {
			return err
		}
		defer stopPprof()
	}

	srv := &http.Server{
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
		// Disconnect the long-lived SSE streams first (their handlers see
		// Done and return), so Shutdown only has to drain short requests.
		s.broadcast.Shutdown()
		drain := s.cfg.DrainTimeout
		if drain <= 0 {
			drain = DefaultDrainTimeout
		}
		shutCtx, shutCancel := context.WithTimeout(context.Background(), drain)
		defer shutCancel()
		err := srv.Shutdown(shutCtx)
		if err != nil {
			// Drain deadline hit: force-close whatever is still open.
			srv.Close()
		}
		<-errc // Serve has returned http.ErrServerClosed
		wg.Wait()
		return err
	case err := <-errc:
		cancel()
		wg.Wait()
		return err
	}
}

// runSimulator replays the configured dataset into the simulate series
// at the configured rate until ctx ends.
func (s *Server) runSimulator(ctx context.Context) {
	values := s.sim.Generate(1).Values
	tick := time.NewTicker(time.Second / time.Duration(s.cfg.Rate))
	defer tick.Stop()
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			_ = s.hub.PushBatch(s.cfg.SimulateSeries, []float64{values[i%len(values)]})
		}
	}
}

// seriesParam resolves the ?series= query parameter, falling back to
// the hub default.
func (s *Server) seriesParam(r *http.Request) string {
	if name := r.URL.Query().Get("series"); name != "" {
		return name
	}
	return s.hub.DefaultSeries()
}

func requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		// RFC 9110 §15.5.6: a 405 MUST carry the set of allowed methods.
		w.Header().Set("Allow", method)
		http.Error(w, method+" required", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	if s.rejectWriteOnFollower(w, r) {
		return
	}
	defer r.Body.Close()
	_, psp := trace.StartSpan(r.Context(), "parse")
	body, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxIngestBytes), r.ContentLength, s.cfg.MaxIngestBytes)
	var batches []batch
	if err == nil {
		batches, err = parseIngest(body, s.hub.DefaultSeries())
	}
	if psp != nil {
		npts := 0
		for _, b := range batches {
			npts += len(b.values)
		}
		psp.SetInt("points", int64(npts))
		if err != nil {
			psp.SetError(err.Error())
		}
		psp.End()
	}
	if err != nil {
		// Nothing was applied: parse covers the whole body before Apply,
		// so a bad line cannot leave a half-pushed batch. Oversized bodies
		// get 413 so clients know splitting the batch (not fixing a line)
		// is the remedy.
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	npts, nseries, err := s.hub.Apply(r.Context(), batches)
	if err != nil {
		// Everything before the failing series was logged and applied;
		// the remainder was dropped. A degraded shard is a retryable
		// condition — the WAL is already reopening it in the background —
		// so answer 503 + Retry-After; anything else is a 500.
		if errors.Is(err, wal.ErrDegraded) {
			s.logUnavailable(r, "WAL shard degraded", err)
			w.Header().Set("Retry-After", readyRetryAfter)
			http.Error(w, fmt.Sprintf("ingest unavailable after %d points (WAL shard degraded, retry): %v", npts, err),
				http.StatusServiceUnavailable)
			return
		}
		http.Error(w, fmt.Sprintf("ingest failed after %d points: %v", npts, err), http.StatusInternalServerError)
		return
	}
	fmt.Fprintf(w, "ingested %d points across %d series\n", npts, nseries)
}

// handleHealthz (GET) is pure liveness: the process is up and serving
// HTTP, so it always answers 200. Degraded durability or lagging
// replication deliberately do NOT flip it — reads (/frame, /plot.svg,
// /stream) keep working from memory through those conditions, and a
// liveness-driven restart would destroy the very state that makes
// degraded mode graceful. Traffic gating belongs to /readyz. The body
// still carries the full diagnostic detail (WAL counters, recovery
// stats, replication lag) for humans and dashboards.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	body := s.healthBody()
	body["status"] = "ok"
	w.Header().Set("Content-Type", "application/json")
	s.writeJSON(w, r, body)
}

// handleReadyz (GET) is readiness: should a load balancer send traffic
// here right now? 503 + Retry-After when the WAL has degraded or
// wedged shards, when acknowledged appends have waited too long for
// their fsync (a stalled disk), or — on a follower — when replication
// has not completed a successful poll recently. The body lists the
// specific reasons so an operator can tell a reopening shard from a
// dead primary at a glance.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	var reasons []string
	if wl := s.curWAL(); wl != nil {
		st := wl.Stats()
		if st.DegradedShards > 0 {
			reasons = append(reasons, fmt.Sprintf("%d WAL shard(s) degraded, reopen in progress", st.DegradedShards))
		}
		if st.WedgedShards > 0 {
			reasons = append(reasons, fmt.Sprintf("%d WAL shard(s) wedged", st.WedgedShards))
		}
		threshold := healthLagFloor
		if t := 10 * s.cfg.FsyncEvery; t > threshold {
			threshold = t
		}
		if st.FlushLag > threshold {
			reasons = append(reasons, fmt.Sprintf("WAL flush lag %s exceeds %s", st.FlushLag, threshold))
		}
	}
	if s.follower != nil && s.role.Load() != rolePrimary {
		fst := s.follower.Status()
		stale := healthLagFloor
		if t := 10 * s.cfg.FollowPoll; t > stale {
			stale = t
		}
		if !fst.Bootstrapped {
			reasons = append(reasons, "replication bootstrap incomplete")
		} else if fst.LastPoll.IsZero() || time.Since(fst.LastPoll) > stale {
			reasons = append(reasons, fmt.Sprintf("no successful replication poll within %s", stale))
		}
	}
	body := s.healthBody()
	if len(reasons) == 0 {
		body["status"] = "ready"
		w.Header().Set("Content-Type", "application/json")
		s.writeJSON(w, r, body)
		return
	}
	s.logUnavailable(r, "not ready: "+strings.Join(reasons, "; "), nil)
	body["status"] = "unready"
	body["reasons"] = reasons
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", readyRetryAfter)
	w.WriteHeader(http.StatusServiceUnavailable)
	s.writeJSON(w, r, body)
}

// healthBody is the diagnostic payload /healthz and /readyz share.
func (s *Server) healthBody() map[string]interface{} {
	body := map[string]interface{}{
		"series":    s.hub.Len(),
		"evictions": s.hub.Evictions(),
		"role":      s.Role(),
	}
	if s.follower != nil && s.role.Load() != rolePrimary {
		fst := s.follower.Status()
		body["replication"] = map[string]interface{}{
			"primary":         fst.Primary,
			"synced":          fst.Synced,
			"records_behind":  fst.RecordsBehind,
			"segments_behind": fst.SegmentsBehind,
			"retries":         fst.Retries,
			"last_error":      fst.LastError,
		}
	}
	if wl := s.curWAL(); wl == nil {
		body["wal"] = map[string]interface{}{"enabled": false}
	} else {
		st := wl.Stats()
		body["wal"] = map[string]interface{}{
			"enabled":           true,
			"flush_lag_ms":      st.FlushLag.Milliseconds(),
			"appended_points":   st.AppendedPoints,
			"syncs":             st.Syncs,
			"sync_errors":       st.SyncErrors,
			"degraded_shards":   st.DegradedShards,
			"wedged_shards":     st.WedgedShards,
			"reopen_attempts":   st.ReopenAttempts,
			"reopen_recoveries": st.ReopenRecoveries,
			"last_recovery": map[string]interface{}{
				"series":                  st.Recovery.SeriesRecovered,
				"snapshots_loaded":        st.Recovery.SnapshotsLoaded,
				"segments_replayed":       st.Recovery.SegmentsReplayed,
				"records_replayed":        st.Recovery.RecordsReplayed,
				"points_replayed":         st.Recovery.PointsReplayed,
				"corrupt_records_skipped": st.Recovery.CorruptRecordsSkipped,
				"duration_ms":             st.Recovery.Duration.Milliseconds(),
			},
		}
	}
	return body
}

// handleSnapshot (POST) compacts the WAL into a fresh checkpoint so
// the next restart replays a minimal tail instead of every segment.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	if s.rejectWriteOnFollower(w, r) {
		return
	}
	wl := s.curWAL()
	if wl == nil {
		http.Error(w, "durability disabled (no data dir configured)", http.StatusConflict)
		return
	}
	res, err := wl.Snapshot()
	if err != nil {
		if errors.Is(err, wal.ErrDegraded) {
			s.logUnavailable(r, "WAL shard degraded", err)
			w.Header().Set("Retry-After", readyRetryAfter)
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	s.lastSnapshotNano.Store(time.Now().UnixNano())
	w.Header().Set("Content-Type", "application/json")
	s.writeJSON(w, r, map[string]interface{}{
		"series":           res.Series,
		"points":           res.Points,
		"segments_removed": res.SegmentsRemoved,
	})
}

// frameJSON mirrors asap.Frame for the wire.
type frameJSON struct {
	Series     string    `json:"series"`
	Values     []float64 `json:"values"`
	Window     int       `json:"window"`
	Roughness  float64   `json:"roughness"`
	Kurtosis   float64   `json:"kurtosis"`
	SeedReused bool      `json:"seed_reused"`
	Sequence   int       `json:"sequence"`
}

func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	name := s.seriesParam(r)
	f, ok := s.hub.Frame(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown series %q", name), http.StatusNotFound)
		return
	}
	if f != nil {
		defer f.Release() // hand the values buffer back to the frame pool
	}
	w.Header().Set("Content-Type", "application/json")
	if f == nil {
		// The series exists but has not produced a frame yet; "null" keeps
		// the original single-series wire contract.
		fmt.Fprintln(w, "null")
		return
	}
	s.writeJSON(w, r, frameJSON{
		Series: name, Values: f.Values, Window: f.Window, Roughness: f.Roughness,
		Kurtosis: f.Kurtosis, SeedReused: f.SeedReused, Sequence: f.Sequence,
	})
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	type seriesJSON struct {
		Name      string `json:"name"`
		RawPoints int    `json:"raw_points"`
	}
	// SeriesList reads only the name and raw-point count per shard —
	// much cheaper than a full Stats sweep on a busy hub.
	infos := s.hub.SeriesList()
	list := make([]seriesJSON, 0, len(infos))
	for _, info := range infos {
		list = append(list, seriesJSON{Name: info.Name, RawPoints: info.RawPoints})
	}
	w.Header().Set("Content-Type", "application/json")
	s.writeJSON(w, r, map[string]interface{}{"count": len(list), "series": list})
}

type seriesStatsJSON struct {
	RawPoints  int `json:"raw_points"`
	Panes      int `json:"panes"`
	Searches   int `json:"searches"`
	Candidates int `json:"candidates"`
	Skipped    int `json:"searches_skipped"`
	Coalesced  int `json:"searches_coalesced"`
	Ratio      int `json:"ratio"`
}

func statsJSON(st SeriesStats) seriesStatsJSON {
	return seriesStatsJSON{
		RawPoints:  st.RawPoints,
		Panes:      st.Panes,
		Searches:   st.Searches,
		Candidates: st.Candidates,
		Skipped:    st.Skipped,
		Coalesced:  st.Coalesced,
		Ratio:      st.Ratio,
	}
}

// handleStats serves aggregate counters plus a per-series breakdown;
// with ?series= it narrows to that one series (404 if unknown).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	if name := r.URL.Query().Get("series"); name != "" {
		// Single-shard fast path: don't sweep (and lock) every shard to
		// answer a question about one series.
		st, ok := s.hub.StatsFor(name)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown series %q", name), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		s.writeJSON(w, r, statsJSON(st))
		return
	}
	per := s.hub.Stats()
	var agg SeriesStats
	perOut := make(map[string]seriesStatsJSON, len(per))
	for name, st := range per {
		agg.RawPoints += st.RawPoints
		agg.Panes += st.Panes
		agg.Searches += st.Searches
		agg.Candidates += st.Candidates
		agg.Skipped += st.Skipped
		agg.Coalesced += st.Coalesced
		perOut[name] = statsJSON(st)
	}
	out := map[string]interface{}{
		"series_count": len(per),
		"evictions":    s.hub.Evictions(),
		"role":         s.Role(),
		"aggregate": map[string]int{
			"raw_points":         agg.RawPoints,
			"panes":              agg.Panes,
			"searches":           agg.Searches,
			"candidates":         agg.Candidates,
			"searches_skipped":   agg.Skipped,
			"searches_coalesced": agg.Coalesced,
		},
		"series": perOut,
	}
	bst := s.broadcast.Stats()
	out["stream"] = map[string]interface{}{
		"subscribers": bst.Subscribers,
		"subscribed":  bst.Subscribed,
		"rejected":    bst.Rejected,
		"published":   bst.Published,
		"delivered":   bst.Delivered,
		"coalesced":   bst.Coalesced,
		"evicted":     bst.Evicted,
	}
	if wl := s.curWAL(); wl != nil {
		wst := wl.Stats()
		out["wal"] = map[string]interface{}{
			"appended_records":        wst.AppendedRecords,
			"appended_points":         wst.AppendedPoints,
			"syncs":                   wst.Syncs,
			"sync_errors":             wst.SyncErrors,
			"rotations":               wst.Rotations,
			"segments_dropped":        wst.SegmentsDropped,
			"snapshots":               wst.Snapshots,
			"flush_lag_ms":            wst.FlushLag.Milliseconds(),
			"recovered_series":        wst.Recovery.SeriesRecovered,
			"replayed_points":         wst.Recovery.PointsReplayed,
			"corrupt_records_skipped": wst.Recovery.CorruptRecordsSkipped,
			"degraded_shards":         wst.DegradedShards,
			"wedged_shards":           wst.WedgedShards,
			"reopen_attempts":         wst.ReopenAttempts,
			"reopen_recoveries":       wst.ReopenRecoveries,
			"last_snapshot_age_ms":    time.Since(time.Unix(0, s.lastSnapshotNano.Load())).Milliseconds(),
			"auto_snapshots":          s.autoSnapshots.Load(),
			"auto_snapshot_errors":    s.autoSnapshotErrs.Load(),
		}
	}
	// After promotion the gauges freeze at their pre-promote values;
	// emitting them would misread the new primary as a healthy replica.
	if s.follower != nil && s.role.Load() != rolePrimary {
		fst := s.follower.Status()
		repl := map[string]interface{}{
			"primary":         fst.Primary,
			"bootstrapped":    fst.Bootstrapped,
			"synced":          fst.Synced,
			"segments_behind": fst.SegmentsBehind,
			"records_behind":  fst.RecordsBehind,
			"bytes_behind":    fst.BytesBehind,
			"records_applied": fst.RecordsApplied,
			"points_applied":  fst.PointsApplied,
			"bytes_fetched":   fst.BytesFetched,
			"polls":           fst.Polls,
			"poll_errors":     fst.PollErrors,
			"retries":         fst.Retries,
			"resyncs":         fst.Resyncs,
			"last_error":      fst.LastError,
		}
		if !fst.LastPoll.IsZero() {
			repl["last_poll_age_ms"] = time.Since(fst.LastPoll).Milliseconds()
		}
		out["replication"] = repl
	}
	w.Header().Set("Content-Type", "application/json")
	s.writeJSON(w, r, out)
}

func (s *Server) handlePlot(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	name := s.seriesParam(r)
	f, ok := s.hub.Frame(name)
	if !ok {
		http.Error(w, fmt.Sprintf("unknown series %q", name), http.StatusNotFound)
		return
	}
	if f == nil {
		s.logUnavailable(r, "no frame yet", nil)
		http.Error(w, "no frame yet", http.StatusServiceUnavailable)
		return
	}
	defer f.Release() // hand the values buffer back to the frame pool
	doc, err := plot.SVGSeries(
		fmt.Sprintf("%s — frame #%d (window %d)", name, f.Sequence, f.Window),
		880, 320,
		map[string][]float64{"smoothed": stats.ZScores(f.Values)},
		[]string{"smoothed"},
	)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	// A failed write means the client went away; there is no one to tell.
	_, _ = io.WriteString(w, doc)
}

var dashboardTmpl = template.Must(template.New("dashboard").Parse(`<!DOCTYPE html>
<html><head><title>ASAP dashboard</title>
<style>body{font-family:sans-serif;margin:2em}</style></head>
<body>
<h2>ASAP streaming dashboard</h2>
<p>Auto-smoothed view of series <b>{{.Selected}}</b>; frames pushed live
over <a href="/stream?series={{.Selected}}">/stream</a>
(<span id="st">connecting&hellip;</span>).</p>
<img id="plot" src="/plot.svg?series={{.Selected}}" alt="waiting for data..."/>
<p>Series:{{range .Names}} <a href="/?series={{.}}">{{.}}</a>{{else}} (none yet){{end}}</p>
<p><a href="/frame?series={{.Selected}}">frame JSON</a> | <a href="/stats">stats JSON</a> | <a href="/series">series JSON</a></p>
<script>
(function () {
	var series = {{.Selected}};
	var img = document.getElementById("plot");
	var st = document.getElementById("st");
	var es = new EventSource("/stream?series=" + encodeURIComponent(series));
	es.addEventListener("frame", function (ev) {
		var f = JSON.parse(ev.data);
		st.textContent = "live: frame #" + f.sequence + ", window " + f.window;
		// seq busts the image cache; the plot endpoint ignores it.
		img.src = "/plot.svg?series=" + encodeURIComponent(series) + "&seq=" + f.sequence;
	});
	es.addEventListener("dropped", function () {
		st.textContent = "series dropped";
		es.close();
	});
	es.onerror = function () { st.textContent = "reconnecting…"; };
})();
</script>
</body></html>
`))

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", "text/html")
	err := dashboardTmpl.Execute(w, struct {
		Selected string
		Names    []string
	}{Selected: s.seriesParam(r), Names: s.hub.SeriesNames()})
	if err != nil {
		s.log().Warn("dashboard render failed",
			"route", "/", "request_id", obs.RequestIDFrom(r.Context()), "error", err)
	}
}

// writeJSON encodes v onto the response. Encode failures (almost
// always a peer that hung up mid-body) are logged with the route and
// request ID rather than silently dropped, so a client seeing a
// truncated body can be correlated server-side.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, v interface{}) {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log().Warn("encode response failed",
			"route", r.URL.Path, "request_id", obs.RequestIDFrom(r.Context()), "error", err)
	}
}

// Package server implements the multi-series streaming hub behind
// cmd/asap-server: a sharded map of series name → *asap.Streamer plus
// the HTTP handlers that expose ingest, frames, plots, and stats.
//
// The hub hashes series names (FNV-1a) onto a fixed array of shards,
// each guarded by its own mutex, so concurrent ingest into distinct
// series rarely contends. A max-series cap with approximate LRU
// eviction bounds memory when clients create series faster than they
// revisit them.
//
// With a write-ahead log configured (HubConfig.WAL), every batch is
// appended to the log before it is applied, and NewHub replays the
// log's recovered tails into warm Streamers so a restarted server picks
// up every series' frames exactly where the crashed one left off.
package server

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asap-go/asap"
	"github.com/asap-go/asap/internal/fnv"
	"github.com/asap-go/asap/internal/obs/trace"
	"github.com/asap-go/asap/internal/wal"
)

// Defaults for HubConfig fields left zero.
const (
	DefaultMaxSeries  = 1024
	DefaultSeriesName = "default"
)

// HubConfig configures a Hub.
type HubConfig struct {
	// Stream configures the per-series Streamer created on first ingest
	// of each series name.
	Stream asap.StreamConfig
	// Shards is the number of lock shards. Zero means GOMAXPROCS.
	Shards int
	// MaxSeries caps live series across the hub; creating one beyond the
	// cap evicts the least-recently-used series. Zero means
	// DefaultMaxSeries.
	MaxSeries int
	// DefaultSeries is the series fed by bare-value ingest lines and read
	// by endpoints with no ?series= parameter. Empty means
	// DefaultSeriesName.
	DefaultSeries string
	// WAL, when non-nil, makes ingest durable: PushBatch appends to the
	// log before applying (so an acknowledged batch survives kill -9)
	// and NewHub warm-restores every series the log recovers.
	WAL *wal.Log
	// OnFrame, when set, receives every frame a push emits, after the
	// shard lock is released. Ownership of the frame transfers to the
	// callback, which must Release it (directly or via downstream
	// holders) — the broadcast layer's feed. Frames for one series
	// arrive in order of emission from the pushing goroutine, but two
	// pushes racing past the unlock may invoke the callback out of
	// sequence order; consumers that care key on Frame.Sequence.
	OnFrame func(series string, f *asap.Frame)
	// OnDrop fires after a series is removed — LRU eviction on a
	// primary, or a replicated tombstone on a follower — so push
	// subscribers can be told the stream ended.
	OnDrop func(series string)
	// metrics, when non-nil, receives refresh-duration observations.
	// Unexported by design: the owning Server wires it (same package);
	// external HubConfig literals leave the hub uninstrumented.
	metrics *hubMetrics
}

// Hub routes per-series traffic to independent Streamers behind
// per-shard locks. All methods are safe for concurrent use.
//
// The write-ahead log is held behind an atomic pointer because a
// follower hub starts without one and gains it at promotion (SetWAL)
// while reads and replicated applies are still in flight.
type Hub struct {
	cfg       HubConfig
	shards    []shard
	wal       atomic.Pointer[wal.Log]
	clock     atomic.Uint64 // LRU clock, ticks on every series touch
	count     atomic.Int64  // live series across all shards
	evictions atomic.Int64
	recovered int64 // series warm-restored from the WAL at construction
}

type shard struct {
	mu     sync.Mutex
	series map[string]*entry
}

type entry struct {
	st       *asap.Streamer
	lastUsed uint64 // guarded by the owning shard's mutex
}

// NewHub validates cfg (by constructing a throwaway Streamer) and
// returns a ready Hub. With cfg.WAL set it starts warm: every series
// the log recovered is replayed into a restored Streamer whose next
// frames continue the pre-crash Values/Window/Sequence exactly.
func NewHub(cfg HubConfig) (*Hub, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxSeries <= 0 {
		cfg.MaxSeries = DefaultMaxSeries
	}
	if cfg.DefaultSeries == "" {
		cfg.DefaultSeries = DefaultSeriesName
	}
	if _, err := asap.NewStreamer(cfg.Stream); err != nil {
		return nil, err
	}
	h := &Hub{cfg: cfg, shards: make([]shard, cfg.Shards)}
	h.wal.Store(cfg.WAL)
	for i := range h.shards {
		h.shards[i].series = make(map[string]*entry)
	}
	if cfg.WAL != nil {
		rec := cfg.WAL.Recover()
		for name, st := range rec.Series {
			if err := h.Restore(name, st.Tail, st.Total); err != nil {
				return nil, err
			}
		}
		h.recovered = int64(len(rec.Series))
		// A shrunken cap still applies: evict down before serving (the
		// guard breaks out if no evictable victim remains).
		for int(h.count.Load()) > cfg.MaxSeries {
			before := h.count.Load()
			h.evictLRU("")
			if h.count.Load() == before {
				break
			}
		}
	}
	return h, nil
}

// Recovered returns how many series the hub warm-restored from the WAL
// at construction.
func (h *Hub) Recovered() int64 { return h.recovered }

// DefaultSeries returns the resolved default series name.
func (h *Hub) DefaultSeries() string { return h.cfg.DefaultSeries }

// Len returns the number of live series.
func (h *Hub) Len() int { return int(h.count.Load()) }

// Evictions returns how many series the LRU cap has removed.
func (h *Hub) Evictions() int64 { return h.evictions.Load() }

func (h *Hub) shardFor(name string) *shard {
	return &h.shards[fnv.Hash32a(name)%uint32(len(h.shards))]
}

// PushBatch appends values to the named series in order, creating the
// series on first use. Only the series' own shard is locked while
// pushing, so batches for different series proceed in parallel. With a
// WAL configured the batch is logged before it is applied — an error
// means nothing from this call reached the in-memory series.
func (h *Hub) PushBatch(name string, values []float64) error {
	return h.push(context.Background(), name, values, true)
}

// PushBatchContext is PushBatch carrying a request context: when the
// context holds a recorded trace, the push runs under a per-shard
// "hub.push" child span with WAL-append, refresh, and broadcast child
// spans beneath it. With no recorded trace it is exactly PushBatch.
func (h *Hub) PushBatchContext(ctx context.Context, name string, values []float64) error {
	return h.push(ctx, name, values, true)
}

// Replicate applies a batch that is already durable on a primary — the
// follower side of WAL shipping. It skips the local WAL (the mirror IS
// the log) and never runs local LRU eviction: the primary's eviction
// choices arrive as tombstones (Drop), and an independent local choice
// would diverge from the primary's bit-identical frame stream.
func (h *Hub) Replicate(name string, values []float64) error {
	return h.push(context.Background(), name, values, false)
}

func (h *Hub) push(ctx context.Context, name string, values []float64, primary bool) error {
	ctx, sp := trace.StartSpan(ctx, "hub.push")
	sh := h.shardFor(name)
	if sp != nil {
		sp.SetStr("series", name)
		sp.SetInt("shard", int64(fnv.Hash32a(name)%uint32(len(h.shards))))
		sp.SetInt("points", int64(len(values)))
	}
	sh.mu.Lock()
	if w := h.wal.Load(); primary && w != nil {
		// Append before apply, under the shard lock, so the log's
		// per-series record order always matches the apply order and an
		// acknowledged batch survives kill -9.
		if err := w.AppendContext(ctx, name, values); err != nil {
			sh.mu.Unlock()
			sp.SetError(err.Error())
			sp.End()
			return fmt.Errorf("wal append %q: %w", name, err)
		}
	}
	e := sh.series[name]
	created := false
	if e == nil {
		st, err := asap.NewStreamer(h.cfg.Stream)
		if err != nil {
			sh.mu.Unlock()
			sp.SetError(err.Error())
			sp.End()
			return err
		}
		e = &entry{st: st}
		sh.series[name] = e
		created = true
	}
	e.lastUsed = h.clock.Add(1)
	// Refresh timing brackets the streamer push alone and is recorded
	// only when it emitted a frame — the refresh path, not the cheap
	// buffer-append pushes between refreshes. Two clock reads, no
	// allocation, so the PR 3/5 zero-alloc refresh discipline holds
	// with instrumentation on. A recorded trace additionally gets a
	// "refresh" child span annotated with the searches the refresh ran,
	// served memoized (skipped), or coalesced into the batch tail.
	var pushStart time.Time
	var statsBefore asap.StreamStats
	if h.cfg.metrics != nil || sp != nil {
		pushStart = time.Now()
	}
	if sp != nil {
		statsBefore = e.st.Stats()
	}
	f := e.st.PushBatch(values)
	if f != nil {
		if sp != nil {
			rsp := sp.ChildAt("refresh", pushStart)
			rsp.End()
			after := e.st.Stats()
			rsp.SetInt("searches", int64(after.Searches-statsBefore.Searches))
			rsp.SetInt("skipped", int64(after.SearchesSkipped-statsBefore.SearchesSkipped))
			rsp.SetInt("coalesced", int64(after.SearchesCoalesced-statsBefore.SearchesCoalesced))
		}
		if h.cfg.metrics != nil {
			if tid := sp.TraceID(); tid != "" {
				h.cfg.metrics.refreshSeconds.ObserveExemplar(time.Since(pushStart).Seconds(), tid)
			} else {
				h.cfg.metrics.refreshSeconds.ObserveDuration(time.Since(pushStart))
			}
		}
	}
	sh.mu.Unlock()
	if f != nil {
		if h.cfg.OnFrame != nil {
			// The broadcast layer takes ownership: it retains per holder
			// and releases the emission when fan-out is done.
			bsp := sp.Child("broadcast.publish")
			h.cfg.OnFrame(name, f)
			bsp.End()
		} else {
			// No subscribers possible: release immediately so the refresh
			// path recycles its values buffer through the frame pool and
			// steady-state ingest stops allocating.
			f.Release()
		}
	}
	sp.End()
	if created && int(h.count.Add(1)) > h.cfg.MaxSeries && primary {
		h.evictLRU(name)
	}
	return nil
}

// Restore creates (or wholesale replaces) the named series as if total
// points had been pushed, of which tail holds the most recent — the
// warm-start path for WAL recovery and replica bootstrap. No WAL write,
// no eviction.
func (h *Hub) Restore(name string, tail []float64, total int64) error {
	st, err := asap.NewStreamer(h.cfg.Stream)
	if err != nil {
		return err
	}
	st.Restore(tail, int(total))
	sh := h.shardFor(name)
	sh.mu.Lock()
	_, existed := sh.series[name]
	sh.series[name] = &entry{st: st, lastUsed: h.clock.Add(1)}
	sh.mu.Unlock()
	if !existed {
		h.count.Add(1)
	}
	return nil
}

// Drop removes the named series without logging a tombstone — the
// follower applying a primary's tombstone record (the primary already
// logged it). Reports whether the series existed.
func (h *Hub) Drop(name string) bool {
	sh := h.shardFor(name)
	sh.mu.Lock()
	_, existed := sh.series[name]
	if existed {
		delete(sh.series, name)
	}
	sh.mu.Unlock()
	if existed {
		h.count.Add(-1)
		if h.cfg.OnDrop != nil {
			h.cfg.OnDrop(name)
		}
	}
	return existed
}

// SetWAL attaches a write-ahead log to a hub that started without one —
// promotion: the follower's mirror directory reopened for writes. From
// the next PushBatch on, ingest is logged before it is applied.
func (h *Hub) SetWAL(l *wal.Log) { h.wal.Store(l) }

// Apply pushes an already-parsed ingest body: the per-series batches
// parseIngest built, in the order each series first appeared, so each
// series takes its shard lock and makes one WAL append per request.
// Call only with a fully parsed body: parse errors must be surfaced
// before any point is applied so a bad line never leaves a partial
// batch.
//
// A non-nil error is a durability failure (stream-config errors were
// ruled out by NewHub): series pushed before the failing one stay
// applied — their WAL records landed — and the counts report what was
// applied so the caller can say so.
func (h *Hub) Apply(ctx context.Context, batches []batch) (npoints, nseries int, err error) {
	for _, b := range batches {
		if err := h.push(ctx, b.series, b.values, true); err != nil {
			return npoints, nseries, err
		}
		npoints += len(b.values)
		nseries++
	}
	return npoints, nseries, nil
}

// evictLRU removes the least-recently-used series other than keep. The
// scan locks one shard at a time, so under concurrent churn the choice
// is approximate and a touched victim is skipped rather than evicted —
// the cap is a memory bound, not an exact invariant.
func (h *Hub) evictLRU(keep string) {
	var victimShard *shard
	victimName := ""
	victimUsed := uint64(math.MaxUint64)
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		for name, e := range sh.series {
			if name != keep && e.lastUsed < victimUsed {
				victimShard, victimName, victimUsed = sh, name, e.lastUsed
			}
		}
		sh.mu.Unlock()
	}
	if victimShard == nil {
		return
	}
	evicted := false
	victimShard.mu.Lock()
	if e, ok := victimShard.series[victimName]; ok && e.lastUsed == victimUsed {
		delete(victimShard.series, victimName)
		h.count.Add(-1)
		h.evictions.Add(1)
		evicted = true
		if w := h.wal.Load(); w != nil {
			// Best-effort tombstone: without it a restart would resurrect
			// the evicted series with its stale cumulative total, and a
			// recreation would diverge from a never-restarted hub. A
			// failed tombstone only costs a resurrection on recovery.
			_ = w.Tombstone(victimName)
		}
	}
	victimShard.mu.Unlock()
	if evicted && h.cfg.OnDrop != nil {
		h.cfg.OnDrop(victimName)
	}
}

// Frame returns the latest frame for the named series. The second
// result reports whether the series exists; the frame is nil until the
// series' first refresh. Reading a frame counts as a use for LRU. The
// returned frame carries its own reference to the pooled values buffer:
// callers should Release it when done (the HTTP handlers do, after
// encoding), which is what lets concurrent refreshes recycle buffers
// without ever mutating a frame a reader still holds.
func (h *Hub) Frame(name string) (*asap.Frame, bool) {
	sh := h.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.series[name]
	if e == nil {
		return nil, false
	}
	e.lastUsed = h.clock.Add(1)
	return e.st.Frame(), true
}

// SeriesStats is one series' cumulative operator counters.
type SeriesStats struct {
	RawPoints  int
	Panes      int
	Searches   int
	Candidates int
	// Skipped counts refreshes the operator served from its cached
	// search result (no new pane since the previous search).
	Skipped int
	// Coalesced counts refresh deadlines folded into a single
	// batch-tail search by batched ingest.
	Coalesced int
	Ratio     int
}

// statsOf snapshots one entry's counters; the caller holds the owning
// shard's lock.
func statsOf(e *entry) SeriesStats {
	st := e.st.Stats()
	return SeriesStats{
		RawPoints:  st.RawPoints,
		Panes:      st.Panes,
		Searches:   st.Searches,
		Candidates: st.Candidates,
		Skipped:    st.SearchesSkipped,
		Coalesced:  st.SearchesCoalesced,
		Ratio:      e.st.Ratio(),
	}
}

// StatsFor snapshots one series' counters, locking only that series'
// shard — the /stats?series= fast path (Stats would lock every shard
// and snapshot all series to answer for one). Like Stats it does not
// count as an LRU touch.
func (h *Hub) StatsFor(name string) (SeriesStats, bool) {
	sh := h.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.series[name]
	if e == nil {
		return SeriesStats{}, false
	}
	return statsOf(e), true
}

// SeriesInfo is one line of the cheap series listing.
type SeriesInfo struct {
	Name      string
	RawPoints int
}

// SeriesList returns every live series' name and raw-point count,
// sorted by name — everything /series needs, without snapshotting the
// full per-series counter set the way Stats does. Shards are locked
// one at a time.
func (h *Hub) SeriesList() []SeriesInfo {
	list := make([]SeriesInfo, 0, h.Len())
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		for name, e := range sh.series {
			list = append(list, SeriesInfo{Name: name, RawPoints: e.st.Stats().RawPoints})
		}
		sh.mu.Unlock()
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Name < list[j].Name })
	return list
}

// Stats snapshots every live series' counters. Shards are locked one
// at a time, so the snapshot is per-series consistent but not a global
// point-in-time cut.
func (h *Hub) Stats() map[string]SeriesStats {
	out := make(map[string]SeriesStats, h.Len())
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		for name, e := range sh.series {
			out[name] = statsOf(e)
		}
		sh.mu.Unlock()
	}
	return out
}

// SeriesNames returns the live series names, sorted.
func (h *Hub) SeriesNames() []string {
	names := make([]string, 0, h.Len())
	for i := range h.shards {
		sh := &h.shards[i]
		sh.mu.Lock()
		for name := range sh.series {
			names = append(names, name)
		}
		sh.mu.Unlock()
	}
	sort.Strings(names)
	return names
}

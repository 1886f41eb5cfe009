package replica

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asap-go/asap/internal/obs/trace"
	"github.com/asap-go/asap/internal/wal"
)

// Defaults for Config fields left zero.
const (
	DefaultPoll            = 500 * time.Millisecond
	DefaultChunkBytes      = 4 << 20
	minChunkBytes          = 1 << 12
	DefaultRetryMaxBackoff = 15 * time.Second
)

// errDesync reports local replica state that can no longer be a prefix
// of the primary's log (corrupt fetched bytes, a sealed segment ending
// mid-record). The follower answers it by resyncing the shard from the
// primary's newest snapshot.
var errDesync = errors.New("replica: local state diverged from primary")

// Target is the read-side state the follower applies replicated records
// to — implemented by the server hub. Restore rebuilds a series as if
// total points were pushed with tail holding the most recent; Replicate
// continues an existing series (or starts a fresh one); Drop mirrors a
// primary-side eviction tombstone.
type Target interface {
	Restore(name string, tail []float64, total int64) error
	Replicate(name string, values []float64) error
	Drop(name string) bool
	SeriesNames() []string
}

// Config configures a Follower.
type Config struct {
	// Dir is the local data directory the primary's WAL is mirrored
	// into. Required. After promotion it opens as a normal WAL dir.
	Dir string
	// Primary is the primary server's base URL. Required.
	Primary string
	// Poll is the manifest poll interval (default 500ms).
	Poll time.Duration
	// LongPoll asks the primary to hold each manifest request open until
	// new appends land (bounded by this duration), cutting idle
	// replication lag from the poll interval to roughly one round-trip.
	// Zero defaults to the poll interval; negative disables long-polling
	// (plain ticker polls, e.g. against primaries that ignore the
	// parameters anyway).
	LongPoll time.Duration
	// ChunkBytes caps one ranged segment fetch (default 4 MiB).
	ChunkBytes int64
	// RetryMaxBackoff caps the exponential backoff between retries
	// after failed polls (default 15s). The backoff starts at Poll and
	// doubles per consecutive failure, jittered; a Retry-After from the
	// primary overrides it when longer.
	RetryMaxBackoff time.Duration
	// Logf receives operational messages. Nil means log.Printf.
	Logf func(format string, args ...interface{})
	// Tracer, when set, roots a "replica.poll" trace per poll and sends
	// its traceparent on every manifest and segment request, so the
	// primary's side of the hop joins the follower's trace. Nil records
	// nothing.
	Tracer *trace.Tracer
}

// Spec captures the primary facts a follower must agree on to produce
// bit-identical frames: shard routing and the stream configuration. It
// is learned from the primary's manifest and persisted locally so a
// follower can restart (and promote) while the primary is dead.
type Spec struct {
	Primary       string     `json:"primary"`
	Shards        int        `json:"shards"`
	DefaultSeries string     `json:"default_series"`
	Stream        StreamSpec `json:"stream"`
}

// specFile persists the Spec beside the mirrored shard directories.
const specFile = "replica.json"

// Status is a point-in-time view of replication progress, surfaced in
// /stats and /healthz on a follower.
type Status struct {
	Primary        string
	Bootstrapped   bool // every shard is past bootstrap
	Synced         bool // last poll succeeded with zero lag
	SegmentsBehind int64
	RecordsBehind  int64
	BytesBehind    int64
	RecordsApplied int64
	PointsApplied  int64
	BytesFetched   int64
	Polls          int64
	PollErrors     int64
	Resyncs        int64
	// Retries counts backed-off retry pauses Run has taken after
	// transient failures — a follower riding out a primary restart
	// accumulates retries but, crucially, no Resyncs.
	Retries   int64
	LastPoll  time.Time // last successful poll
	LastError string
}

// segCursor tracks the segment currently being fetched and applied:
// fetched is the local byte size of the mirror file, applied the
// record-aligned prefix decoded into the target, records the records
// applied from this file across the follower's lifetime (base* carry
// the pre-restart share so lag math stays exact after a resume).
type segCursor struct {
	seq         uint64
	fetched     int64
	applied     int64
	records     int64
	base        int64
	baseRecords int64
	scan        wal.RecordScanner
}

// shardState is one shard's replication position. Touched only by the
// follower's single poll goroutine (and WarmUp before it starts).
type shardState struct {
	id           int
	dir          string
	bootstrapped bool
	snapSeq      uint64 // local mirrored snapshot covers segments <= snapSeq
	doneSeq      uint64 // segments <= doneSeq are fully applied
	cur          *segCursor
}

// Follower mirrors a primary's WAL into Config.Dir and applies the
// records to a Target. Create with New, warm the target with WarmUp,
// then drive with Run (or PollOnce in tests). Stop halts the loop,
// fsyncs the mirror, and writes the final cursor; after Stop the
// directory is ready for wal.Open — promotion.
type Follower struct {
	cfg    Config
	logf   func(format string, args ...interface{})
	client *Client
	spec   Spec
	target Target
	hor    int
	shards []*shardState

	recordsApplied atomic.Int64
	pointsApplied  atomic.Int64
	bytesFetched   atomic.Int64
	polls          atomic.Int64
	pollErrors     atomic.Int64
	resyncs        atomic.Int64
	retries        atomic.Int64

	// lastCursor is the cursor as last persisted; manVersion the
	// primary's append version as of the last manifest (the long-poll
	// resume token), -1 before the first: a primary's versions start at
	// 0, so a 0 here would park the first poll against a primary that
	// has appended nothing since it started. Touched only by the poll
	// goroutine (and Stop's finalize after the loop has exited).
	lastCursor wal.Cursor
	manVersion int64

	mu         sync.Mutex
	gauges     Status // lag gauges + last poll/error; counters live in atomics
	runStarted bool
	stopped    bool

	stopOnce  sync.Once
	stopc     chan struct{}
	runDone   chan struct{}
	finalOnce sync.Once
}

// New contacts the primary for its manifest (falling back to the
// locally persisted spec when the primary is unreachable — a follower
// must be able to restart, serve, and promote while the primary is
// dead) and returns a Follower ready to WarmUp. The learned spec is
// persisted; a primary whose stream configuration changed is refused.
func New(cfg Config) (*Follower, error) {
	if cfg.Dir == "" {
		return nil, errors.New("replica: Dir required")
	}
	if cfg.Poll <= 0 {
		cfg.Poll = DefaultPoll
	}
	if cfg.LongPoll == 0 {
		cfg.LongPoll = cfg.Poll
	}
	if cfg.LongPoll < 0 {
		cfg.LongPoll = 0
	}
	if cfg.ChunkBytes <= 0 {
		cfg.ChunkBytes = DefaultChunkBytes
	}
	if cfg.ChunkBytes < minChunkBytes {
		cfg.ChunkBytes = minChunkBytes
	}
	if cfg.RetryMaxBackoff <= 0 {
		cfg.RetryMaxBackoff = DefaultRetryMaxBackoff
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	client, err := NewClient(cfg.Primary)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	persisted, havePersisted, err := loadSpec(cfg.Dir)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	man, merr := client.Manifest(ctx)
	cancel()
	var spec Spec
	switch {
	case merr == nil:
		spec = Spec{
			Primary:       client.Primary(),
			Shards:        man.Shards,
			DefaultSeries: man.DefaultSeries,
			Stream:        man.Stream,
		}
		if havePersisted && (persisted.Shards != spec.Shards || persisted.Stream != spec.Stream) {
			return nil, fmt.Errorf("replica: primary %s changed shape (shards %d->%d, stream %+v -> %+v); wipe %s to re-bootstrap",
				cfg.Primary, persisted.Shards, spec.Shards, persisted.Stream, spec.Stream, cfg.Dir)
		}
		if err := saveSpec(cfg.Dir, spec); err != nil {
			return nil, err
		}
	case havePersisted:
		logf("replica: primary %s unreachable (%v); serving the local mirror", cfg.Primary, merr)
		spec = persisted
	default:
		return nil, fmt.Errorf("replica: primary unreachable and no local mirror in %s: %w", cfg.Dir, merr)
	}

	f := &Follower{
		cfg:        cfg,
		logf:       logf,
		client:     client,
		spec:       spec,
		manVersion: -1,
		stopc:      make(chan struct{}),
		runDone:    make(chan struct{}),
	}
	f.gauges.Primary = client.Primary()
	return f, nil
}

// Spec returns the primary facts the follower mirrors.
func (f *Follower) Spec() Spec { return f.spec }

// WarmUp restores every series recoverable from the local mirror into
// target and positions each shard to resume tailing exactly after the
// last intact applied record — including mid-segment. It returns how
// many series were restored. Call once, before Run.
func (f *Follower) WarmUp(target Target, horizonPoints int) (int, error) {
	f.target = target
	f.hor = horizonPoints
	if err := wal.InitMeta(f.cfg.Dir, f.spec.Shards); err != nil {
		return 0, err
	}
	rec, cur, err := wal.LoadState(f.cfg.Dir, horizonPoints)
	if err != nil {
		return 0, err
	}
	if pc, ok, err := wal.ReadCursor(f.cfg.Dir); err != nil {
		f.logf("replica: ignoring unreadable cursor: %v", err)
	} else if ok {
		// The persisted cursor is the durable applied watermark; local
		// files always hold at least that much (bytes land before the
		// cursor advances), so LoadState can only be equal or ahead —
		// anything else means the mirror was tampered with.
		for i := range pc.Shards {
			lp := cur.Pos(i)
			if p := pc.Shards[i]; p.SegSeq > lp.SegSeq || (p.SegSeq == lp.SegSeq && p.Offset > lp.Offset) {
				f.logf("replica: shard %d: cursor ahead of local files (cursor %+v, files %+v); refetching the difference", i, p, lp)
			}
		}
	}
	for name, st := range rec.Series {
		if err := target.Restore(name, st.Tail, st.Total); err != nil {
			return 0, err
		}
	}
	f.shards = make([]*shardState, f.spec.Shards)
	for i := range f.shards {
		st := &shardState{id: i, dir: filepath.Join(f.cfg.Dir, fmt.Sprintf("shard-%04d", i))}
		pos := cur.Pos(i)
		if pos.SegSeq > 0 || pos.SnapSeq > 0 {
			st.bootstrapped = true
			st.snapSeq = pos.SnapSeq
			if pos.SegSeq > 0 {
				st.doneSeq = pos.SegSeq - 1
				// Drop any torn local tail so appended fetches stay
				// contiguous with the applied prefix.
				path := filepath.Join(st.dir, wal.SegmentFileName(pos.SegSeq))
				if fi, err := os.Stat(path); err == nil && fi.Size() > pos.Offset {
					if err := os.Truncate(path, pos.Offset); err != nil {
						return 0, err
					}
				}
				st.cur = &segCursor{
					seq:         pos.SegSeq,
					fetched:     pos.Offset,
					applied:     pos.Offset,
					records:     pos.Records,
					base:        pos.Offset,
					baseRecords: pos.Records,
				}
			} else {
				st.doneSeq = pos.SnapSeq
			}
		}
		f.shards[i] = st
	}
	return len(rec.Series), nil
}

// Run polls the primary until ctx ends or Stop is called. With
// long-polling (the default) the primary itself paces the loop: each
// manifest request parks server-side until new appends land or the
// long-poll window elapses, so a successful poll is followed
// immediately by the next one.
//
// Failed polls retry with capped exponential backoff (Poll doubling up
// to RetryMaxBackoff, jittered), honoring any Retry-After the primary
// sent — so a follower rides out a primary restart holding its
// incremental position (Retries climbs, Resyncs does not) and the
// mirror freezes at its last replicated point, exactly what a
// promotion candidate should hold. Fatal errors (protocol or
// configuration mismatches the primary will keep returning) skip
// straight to the maximum backoff instead of hammering.
func (f *Follower) Run(ctx context.Context) {
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		close(f.runDone)
		return
	}
	f.runStarted = true
	f.mu.Unlock()
	defer close(f.runDone)
	defer f.finalOnce.Do(f.finalize)
	failures := 0
	for {
		err := f.poll(ctx, f.cfg.LongPoll)
		if err != nil && ctx.Err() == nil {
			f.logf("replica: poll: %v", err)
		}
		var pause time.Duration
		if err == nil {
			failures = 0
			if f.cfg.LongPoll <= 0 {
				pause = f.cfg.Poll // plain polling: the interval paces us
			}
			// else: the long-poll already waited server-side; go again.
		} else {
			failures++
			f.retries.Add(1)
			if Transient(err) {
				pause = retryBackoff(f.cfg.Poll, f.cfg.RetryMaxBackoff, failures)
			} else {
				pause = f.cfg.RetryMaxBackoff
			}
			if ra := RetryAfterHint(err); ra > pause {
				pause = ra
			}
		}
		if pause <= 0 {
			select {
			case <-ctx.Done():
				return
			case <-f.stopc:
				return
			default:
				continue
			}
		}
		timer := time.NewTimer(pause)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-f.stopc:
			timer.Stop()
			return
		case <-timer.C:
		}
	}
}

// Stop halts the poll loop (waiting for an in-flight poll to finish),
// fsyncs the mirrored files, and writes the final cursor. Idempotent;
// safe to call whether or not Run was started. After Stop the data
// directory is a consistent WAL ready for wal.Open.
func (f *Follower) Stop() {
	f.mu.Lock()
	f.stopped = true
	started := f.runStarted
	f.mu.Unlock()
	f.stopOnce.Do(func() { close(f.stopc) })
	if started {
		<-f.runDone
	}
	f.finalOnce.Do(f.finalize)
}

// finalize makes the mirror durable: fsync every shard's in-flight
// segment file and record the final cursor.
func (f *Follower) finalize() {
	for _, st := range f.shards {
		if st.cur == nil {
			continue
		}
		path := filepath.Join(st.dir, wal.SegmentFileName(st.cur.seq))
		if fd, err := os.OpenFile(path, os.O_RDWR, 0); err == nil {
			if err := fd.Sync(); err != nil {
				f.logf("replica: fsync %s: %v", path, err)
			}
			fd.Close()
		}
	}
	if err := wal.WriteCursor(f.cfg.Dir, f.cursor()); err != nil {
		f.logf("replica: final cursor: %v", err)
	}
}

// cursor snapshots the per-shard applied watermark.
func (f *Follower) cursor() wal.Cursor {
	c := wal.Cursor{Shards: make([]wal.CursorPos, len(f.shards))}
	for i, st := range f.shards {
		pos := wal.CursorPos{SnapSeq: st.snapSeq}
		if st.cur != nil {
			pos.SegSeq, pos.Offset, pos.Records = st.cur.seq, st.cur.applied, st.cur.records
		} else if st.doneSeq > st.snapSeq {
			pos.SegSeq = st.doneSeq
			if fi, err := os.Stat(filepath.Join(st.dir, wal.SegmentFileName(st.doneSeq))); err == nil {
				pos.Offset = fi.Size()
			}
		}
		c.Shards[i] = pos
	}
	return c
}

// Status returns the current replication status.
func (f *Follower) Status() Status {
	f.mu.Lock()
	st := f.gauges
	f.mu.Unlock()
	st.RecordsApplied = f.recordsApplied.Load()
	st.PointsApplied = f.pointsApplied.Load()
	st.BytesFetched = f.bytesFetched.Load()
	st.Polls = f.polls.Load()
	st.PollErrors = f.pollErrors.Load()
	st.Resyncs = f.resyncs.Load()
	st.Retries = f.retries.Load()
	return st
}

// PollOnce fetches the manifest immediately (no long-poll wait),
// catches every shard up to its durable watermark, persists the
// cursor, and refreshes the lag gauges. Run drives the same logic
// through the long-poll path; tests and one-shot callers use this.
func (f *Follower) PollOnce(ctx context.Context) error {
	return f.poll(ctx, 0)
}

// poll is PollOnce with an optional server-side long-poll wait, traced
// as one "replica.poll" operation (manifest fetch and per-shard sync as
// child spans, errors flagged for tail retention).
func (f *Follower) poll(ctx context.Context, wait time.Duration) error {
	ctx, tr := f.cfg.Tracer.StartTrace(ctx, "replica.poll")
	err := f.pollTrace(ctx, wait)
	if tr != nil {
		if err != nil {
			tr.Root().SetError(err.Error())
		}
		f.cfg.Tracer.Finish(tr)
	}
	return err
}

func (f *Follower) pollTrace(ctx context.Context, wait time.Duration) error {
	if f.target == nil {
		return errors.New("replica: WarmUp before PollOnce")
	}
	mctx, msp := trace.StartSpan(ctx, "replica.manifest")
	man, err := f.client.ManifestWait(mctx, f.manVersion, wait)
	if msp != nil {
		if err != nil {
			msp.SetError(err.Error())
		}
		msp.End()
	}
	if err != nil {
		f.noteError(err)
		return err
	}
	f.manVersion = man.Version
	if man.Shards != f.spec.Shards {
		err := fmt.Errorf("replica: primary shard count changed %d -> %d", f.spec.Shards, man.Shards)
		f.noteError(err)
		return err
	}
	if man.Stream != f.spec.Stream {
		err := fmt.Errorf("replica: primary stream config changed %+v -> %+v", f.spec.Stream, man.Stream)
		f.noteError(err)
		return err
	}
	var firstErr error
	for _, sm := range man.ShardManifests {
		if sm.Shard < 0 || sm.Shard >= len(f.shards) {
			continue
		}
		sctx, ssp := trace.StartSpan(ctx, "replica.sync_shard")
		ssp.SetInt("shard", int64(sm.Shard))
		err := f.syncShard(sctx, f.shards[sm.Shard], sm)
		if err != nil {
			ssp.SetError(err.Error())
		}
		ssp.End()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			f.logf("replica: shard %d: %v", sm.Shard, err)
		}
	}
	// Persist the applied watermark, but only when it moved: an idle
	// caught-up follower must not pay a write+fsync+rename per poll for
	// a byte-identical cursor.
	if cur := f.cursor(); !cursorEqual(cur, f.lastCursor) {
		if err := wal.WriteCursor(f.cfg.Dir, cur); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			f.lastCursor = cur
		}
	}
	f.updateGauges(man, firstErr)
	if firstErr != nil {
		f.pollErrors.Add(1)
	}
	f.polls.Add(1)
	return firstErr
}

func (f *Follower) noteError(err error) {
	f.pollErrors.Add(1)
	f.polls.Add(1)
	f.mu.Lock()
	f.gauges.LastError = err.Error()
	f.gauges.Synced = false
	f.mu.Unlock()
}

// updateGauges recomputes the lag gauges against the just-processed
// manifest: what the primary holds durably minus what this follower
// has applied.
func (f *Follower) updateGauges(man *PrimaryManifest, pollErr error) {
	var segB, recB, bytB int64
	booted := true
	for _, sm := range man.ShardManifests {
		if sm.Shard < 0 || sm.Shard >= len(f.shards) {
			continue
		}
		st := f.shards[sm.Shard]
		if !st.bootstrapped {
			booted = false
		}
		segs, recs, bytes := manifestLag(sm, st.progress())
		segB += segs
		recB += recs
		bytB += bytes
	}
	f.mu.Lock()
	f.gauges.Bootstrapped = booted
	f.gauges.SegmentsBehind = segB
	f.gauges.RecordsBehind = recB
	f.gauges.BytesBehind = bytB
	if pollErr == nil {
		f.gauges.LastPoll = time.Now()
		f.gauges.LastError = ""
		f.gauges.Synced = booted && recB == 0
	} else {
		f.gauges.LastError = pollErr.Error()
		f.gauges.Synced = false
	}
	f.mu.Unlock()
}

// syncShard catches one shard up to the manifest's durable watermark:
// bootstrap if the shard has no local state yet, then fetch-and-apply
// segments in sequence order, resyncing from the primary's snapshot
// whenever the contiguous chain is broken.
func (f *Follower) syncShard(ctx context.Context, st *shardState, sm wal.ShardManifest) error {
	if !st.bootstrapped {
		return f.bootstrapShard(ctx, st, sm)
	}
	for {
		var meta *wal.FileMeta
		if st.cur != nil {
			meta = findSeq(sm.Segments, st.cur.seq)
			if meta == nil {
				// Our in-flight segment vanished: its unfetched tail now
				// lives only in a newer snapshot.
				return f.resyncShard(ctx, st, sm, "in-flight segment reclaimed")
			}
		} else {
			meta = lowestAbove(sm.Segments, st.doneSeq)
			if meta == nil {
				break // fully caught up with this manifest
			}
			if meta.Seq != st.doneSeq+1 {
				// Segments between doneSeq and meta.Seq were reclaimed
				// before we applied them.
				return f.resyncShard(ctx, st, sm, "segment chain gap")
			}
			st.cur = &segCursor{seq: meta.Seq}
		}
		if err := f.fetchApply(ctx, st, meta); err != nil {
			if errors.Is(err, ErrGone) || errors.Is(err, errDesync) {
				return f.resyncShard(ctx, st, sm, err.Error())
			}
			return err
		}
		if meta.Active || st.cur.fetched < meta.Size {
			break // reached the durable watermark (or a short read); next poll continues
		}
		// Sealed and fully fetched: every byte must have decoded.
		if st.cur.scan.Pending() != 0 {
			return f.resyncShard(ctx, st, sm, "sealed segment ends mid-record")
		}
		st.doneSeq = st.cur.seq
		st.cur = nil
	}
	return f.mirrorSnapshot(ctx, st, sm)
}

// fetchApply pulls bytes of meta's file from the primary in chunks,
// appends them to the local mirror file, and applies every complete
// record to the target.
func (f *Follower) fetchApply(ctx context.Context, st *shardState, meta *wal.FileMeta) error {
	cur := st.cur
	if cur.fetched >= meta.Size {
		return nil
	}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return err
	}
	name := wal.SegmentFileName(cur.seq)
	lf, err := os.OpenFile(filepath.Join(st.dir, name), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer lf.Close()
	for cur.fetched < meta.Size {
		want := meta.Size - cur.fetched
		if want > f.cfg.ChunkBytes {
			want = f.cfg.ChunkBytes
		}
		data, err := f.client.FetchRange(ctx, st.id, name, cur.fetched, want)
		if err != nil {
			return err
		}
		if len(data) == 0 {
			break // stale manifest; the next poll re-lists
		}
		if _, err := lf.WriteAt(data, cur.fetched); err != nil {
			return err
		}
		feed := data
		if cur.fetched == 0 {
			if len(data) < len(wal.SegmentMagic) || string(data[:len(wal.SegmentMagic)]) != wal.SegmentMagic {
				return fmt.Errorf("%w: segment %s has bad magic", errDesync, name)
			}
			feed = data[len(wal.SegmentMagic):]
			cur.base = int64(len(wal.SegmentMagic))
		}
		cur.scan.Feed(feed)
		if err := f.drain(&cur.scan); err != nil {
			return err
		}
		cur.fetched += int64(len(data))
		cur.applied = cur.base + cur.scan.Consumed()
		cur.records = cur.baseRecords + cur.scan.Records()
		f.bytesFetched.Add(int64(len(data)))
		if int64(len(data)) < want {
			break
		}
	}
	return nil
}

// drain applies every complete record buffered in sc to the target.
func (f *Follower) drain(sc *wal.RecordScanner) error {
	for {
		series, total, values, ok, err := sc.Next()
		if err != nil {
			return fmt.Errorf("%w: %v", errDesync, err)
		}
		if !ok {
			return nil
		}
		if total == 0 && len(values) == 0 {
			f.target.Drop(series)
		} else if err := f.target.Replicate(series, values); err != nil {
			return err
		}
		f.recordsApplied.Add(1)
		f.pointsApplied.Add(int64(len(values)))
	}
}

// bootstrapShard builds the shard from scratch at the manifest's
// durable point: mirror the snapshot and every listed segment, fold
// them into per-series state exactly the way recovery does, and
// Restore each series into the target. Series the target holds for
// this shard that the rebuilt state lacks were tombstoned while we
// were away — they are dropped, mirroring the primary's evictions.
// Afterwards the shard tails the active segment from the point it
// fetched to.
//
// Nothing local is deleted until the new chain is fully fetched and
// applied: every fetch lands via tmp+rename, the new snapshot's
// sequence exceeds every stale local segment's, and LoadState always
// starts from the newest snapshot — so a crash or dead primary at any
// point leaves the previous consistent (if stale) prefix restorable,
// never an emptied shard.
func (f *Follower) bootstrapShard(ctx context.Context, st *shardState, sm wal.ShardManifest) error {
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return err
	}
	st.snapSeq, st.doneSeq, st.cur = 0, 0, nil

	state := make(map[string]*wal.SeriesState)
	if sm.Snapshot != nil {
		name := wal.SnapshotFileName(sm.Snapshot.Seq)
		if err := f.fetchWholeFile(ctx, st, name, sm.Snapshot.Size); err != nil {
			return err
		}
		loaded, _, skipped, err := wal.ReadSnapshotFile(filepath.Join(st.dir, name))
		if err != nil {
			return err
		}
		if skipped > 0 {
			return fmt.Errorf("%w: fetched snapshot %s has a torn tail", errDesync, name)
		}
		state = loaded
		st.snapSeq = sm.Snapshot.Seq
		st.doneSeq = sm.Snapshot.Seq
	}
	for i := range sm.Segments {
		meta := &sm.Segments[i]
		if meta.Seq <= st.snapSeq {
			continue // covered by the snapshot we just mirrored
		}
		name := wal.SegmentFileName(meta.Seq)
		if meta.Size > 0 {
			if err := f.fetchWholeFile(ctx, st, name, meta.Size); err != nil {
				return err
			}
			if err := f.replayLocalSegment(filepath.Join(st.dir, name), state); err != nil {
				return err
			}
		}
		if meta.Active {
			st.cur = &segCursor{
				seq:         meta.Seq,
				fetched:     meta.Size,
				applied:     meta.Size,
				records:     meta.Records,
				base:        meta.Size,
				baseRecords: meta.Records,
			}
		} else {
			st.doneSeq = meta.Seq
		}
	}

	// Restore the rebuilt state; drop series this shard owned that no
	// longer exist (tombstoned on the primary while we were behind).
	rebuilt := make(map[string]bool, len(state))
	for name, sst := range state {
		if f.hor > 0 && len(sst.Tail) > f.hor {
			sst.Tail = sst.Tail[len(sst.Tail)-f.hor:]
		}
		if err := f.target.Restore(name, sst.Tail, sst.Total); err != nil {
			return err
		}
		rebuilt[name] = true
	}
	for _, name := range f.target.SeriesNames() {
		if wal.ShardOf(name, f.spec.Shards) == st.id && !rebuilt[name] {
			f.target.Drop(name)
		}
	}

	// The new chain is fully mirrored and applied; only now do stale
	// local files from the previous position go. Chain files: the
	// snapshot (if any) and every listed segment.
	chain := make(map[string]bool, len(sm.Segments)+1)
	if sm.Snapshot != nil {
		chain[wal.SnapshotFileName(sm.Snapshot.Seq)] = true
	}
	for _, meta := range sm.Segments {
		chain[wal.SegmentFileName(meta.Seq)] = true
	}
	if entries, err := os.ReadDir(st.dir); err == nil {
		for _, e := range entries {
			if _, _, ok := parseLocalName(e.Name()); ok && !chain[e.Name()] {
				os.Remove(filepath.Join(st.dir, e.Name()))
			}
		}
	}
	st.bootstrapped = true
	return nil
}

// resyncShard abandons the shard's incremental position and
// re-bootstraps it from the primary's current snapshot + segments.
func (f *Follower) resyncShard(ctx context.Context, st *shardState, sm wal.ShardManifest, why string) error {
	f.logf("replica: shard %d: resync (%s)", st.id, why)
	f.resyncs.Add(1)
	st.bootstrapped = false
	return f.bootstrapShard(ctx, st, sm)
}

// mirrorSnapshot keeps the local directory as compact as the primary's:
// once every segment a primary snapshot covers has been applied here,
// fetch the snapshot and delete the covered local files — by induction
// the mirrored snapshot equals one compacted from the local copies.
func (f *Follower) mirrorSnapshot(ctx context.Context, st *shardState, sm wal.ShardManifest) error {
	if sm.Snapshot == nil || sm.Snapshot.Seq <= st.snapSeq || sm.Snapshot.Seq > st.doneSeq {
		// Nothing new, or the snapshot covers records we have not applied
		// yet (then either the chain still feeds us, or a gap will force
		// a resync — never jump ahead here).
		return nil
	}
	name := wal.SnapshotFileName(sm.Snapshot.Seq)
	if err := f.fetchWholeFile(ctx, st, name, sm.Snapshot.Size); err != nil {
		if errors.Is(err, ErrGone) {
			return nil // compacted again already; next poll sees the newer one
		}
		return err
	}
	oldSnap := st.snapSeq
	st.snapSeq = sm.Snapshot.Seq
	if oldSnap > 0 {
		os.Remove(filepath.Join(st.dir, wal.SnapshotFileName(oldSnap)))
	}
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if seq, snap, ok := parseLocalName(e.Name()); ok && !snap && seq <= st.snapSeq {
			os.Remove(filepath.Join(st.dir, e.Name()))
		}
	}
	return nil
}

// fetchWholeFile mirrors one complete file (to tmp, then rename, so a
// crash never leaves a half-written snapshot looking authoritative).
func (f *Follower) fetchWholeFile(ctx context.Context, st *shardState, name string, size int64) error {
	path := filepath.Join(st.dir, name)
	tmp := path + ".tmp"
	lf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var off int64
	for off < size {
		want := size - off
		if want > f.cfg.ChunkBytes {
			want = f.cfg.ChunkBytes
		}
		data, err := f.client.FetchRange(ctx, st.id, name, off, want)
		if err != nil {
			lf.Close()
			os.Remove(tmp)
			return err
		}
		if len(data) == 0 {
			lf.Close()
			os.Remove(tmp)
			return fmt.Errorf("%w: %s truncated on primary at %d/%d", ErrGone, name, off, size)
		}
		if _, err := lf.WriteAt(data, off); err != nil {
			lf.Close()
			os.Remove(tmp)
			return err
		}
		off += int64(len(data))
		f.bytesFetched.Add(int64(len(data)))
	}
	if err := lf.Sync(); err != nil {
		lf.Close()
		os.Remove(tmp)
		return err
	}
	if err := lf.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// replayLocalSegment folds one fully mirrored segment into state with
// recovery's semantics: tails append (trimmed to the horizon),
// cumulative totals take the maximum, tombstones delete.
func (f *Follower) replayLocalSegment(path string, state map[string]*wal.SeriesState) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) < len(wal.SegmentMagic) || string(data[:len(wal.SegmentMagic)]) != wal.SegmentMagic {
		return fmt.Errorf("%w: %s has bad magic", errDesync, path)
	}
	var sc wal.RecordScanner
	sc.Feed(data[len(wal.SegmentMagic):])
	for {
		series, total, values, ok, err := sc.Next()
		if err != nil {
			return fmt.Errorf("%w: %s: %v", errDesync, path, err)
		}
		if !ok {
			break
		}
		wal.FoldRecord(state, series, total, values, f.hor)
	}
	if sc.Pending() != 0 {
		return fmt.Errorf("%w: %s ends mid-record", errDesync, path)
	}
	return nil
}

func cursorEqual(a, b wal.Cursor) bool {
	if len(a.Shards) != len(b.Shards) {
		return false
	}
	for i := range a.Shards {
		if a.Shards[i] != b.Shards[i] {
			return false
		}
	}
	return true
}

func findSeq(segs []wal.FileMeta, seq uint64) *wal.FileMeta {
	for i := range segs {
		if segs[i].Seq == seq {
			return &segs[i]
		}
	}
	return nil
}

func lowestAbove(segs []wal.FileMeta, seq uint64) *wal.FileMeta {
	var best *wal.FileMeta
	for i := range segs {
		if segs[i].Seq > seq && (best == nil || segs[i].Seq < best.Seq) {
			best = &segs[i]
		}
	}
	return best
}

// parseLocalName classifies a local mirror file name.
func parseLocalName(name string) (seq uint64, snapshot, ok bool) {
	var n uint64
	if _, err := fmt.Sscanf(name, "seg-%d.wal", &n); err == nil && name == wal.SegmentFileName(n) {
		return n, false, true
	}
	if _, err := fmt.Sscanf(name, "snap-%d.snap", &n); err == nil && name == wal.SnapshotFileName(n) {
		return n, true, true
	}
	return 0, false, false
}

func loadSpec(dir string) (Spec, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, specFile))
	if os.IsNotExist(err) {
		return Spec{}, false, nil
	}
	if err != nil {
		return Spec{}, false, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, false, fmt.Errorf("replica: bad %s: %w", specFile, err)
	}
	if s.Shards <= 0 {
		return Spec{}, false, fmt.Errorf("replica: bad %s: shards %d", specFile, s.Shards)
	}
	return s, true, nil
}

// saveSpec persists the primary facts with the full write→fsync→
// rename→dirsync discipline: a power loss must never leave a follower
// that cannot restart (and promote) while the primary is dead because
// its spec evaporated from the page cache.
func saveSpec(dir string, s Spec) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, specFile)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

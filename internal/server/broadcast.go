package server

// The broadcast layer: per-series subscriber registries fed by the
// hub's OnFrame/OnDrop hooks, fanning every refresh out to the SSE
// subscribers of GET /stream (see sse.go for the wire side).
//
// Delivery discipline:
//
//   - One encode per delivered refresh. A published frame is wrapped in
//     a reference-counted event shared by every subscriber; the first
//     subscriber to write it renders the SSE bytes once (sync.Once) and
//     the rest reuse them. The frame itself rides the pooled refcount
//     from PR 5 — the event holds the hub's emission reference and
//     Releases it when the last subscriber lets go, so fan-out adds no
//     per-subscriber copies of the values buffer.
//
//   - Latest-frame-wins coalescing. Each subscriber holds one pending
//     slot per subscribed series. A burst of refreshes overwrites the
//     slot (releasing the superseded event) so a slow reader drains
//     only the newest frame; sequence numbers guard the slot against
//     out-of-order publishes racing past the shard unlock.
//
//   - Slow-consumer eviction. Publishing never blocks: a subscriber
//     whose pending slots have sat undrained past the stall deadline is
//     closed and unregistered instead of delaying the other N-1. The
//     SSE handler additionally arms a write deadline so a stalled TCP
//     peer cannot wedge the writing goroutine.

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/asap-go/asap"
)

// Defaults for broadcastConfig fields left zero.
const (
	DefaultMaxSubscribers  = 1024
	DefaultHeartbeatEvery  = 15 * time.Second
	DefaultStallTimeout    = 5 * time.Second
	maxSeriesPerSubscriber = 64
)

// ErrSubscriberLimit reports a Subscribe beyond the configured cap.
var ErrSubscriberLimit = errors.New("server: subscriber limit reached")

// eventKind distinguishes the two things a slot can carry.
type eventKind uint8

const (
	eventFrame eventKind = iota
	eventDropped
)

// event is one broadcastable occurrence, shared by every subscriber of
// its series. It owns one reference to the frame (the hub's emission
// reference, or a Retain made at catch-up) and releases it when the
// last holder — publisher or subscriber slot — releases the event.
// The SSE rendering is computed once, by whichever subscriber writes
// first, and reused by the rest.
type event struct {
	kind   eventKind
	series string
	seq    int
	frame  *asap.Frame
	at     time.Time // publish (or catch-up) time, for delivery latency
	refs   atomic.Int32
	once   sync.Once
	data   []byte
}

func newFrameEvent(series string, f *asap.Frame) *event {
	e := &event{kind: eventFrame, series: series, seq: f.Sequence, frame: f}
	e.refs.Store(1)
	return e
}

func newDroppedEvent(series string) *event {
	e := &event{kind: eventDropped, series: series}
	e.refs.Store(1)
	return e
}

func (e *event) retain() { e.refs.Add(1) }

func (e *event) release() {
	switch n := e.refs.Add(-1); {
	case n == 0:
		if e.frame != nil {
			e.frame.Release()
		}
	case n < 0:
		panic("server: broadcast event over-released")
	}
}

// sse renders the event's wire bytes, once. Frame events carry
// id "<series>@<sequence>" (the Last-Event-ID resume token) and the
// same JSON body as GET /frame; dropped events announce the end of a
// series' stream.
func (e *event) sse() []byte {
	e.once.Do(func() {
		switch e.kind {
		case eventDropped:
			body, _ := json.Marshal(struct {
				Series string `json:"series"`
			}{e.series})
			e.data = []byte("event: dropped\ndata: " + string(body) + "\n\n")
		default:
			f := e.frame
			body, err := json.Marshal(frameJSON{
				Series: e.series, Values: f.Values, Window: f.Window, Roughness: f.Roughness,
				Kurtosis: f.Kurtosis, SeedReused: f.SeedReused, Sequence: f.Sequence,
			})
			if err != nil {
				// Unreachable (finite floats only survive ingest), but never
				// emit a half-framed event.
				body = []byte("null")
			}
			// One buffer, sized for the longest sequence number, so the
			// ~14 KB body is copied once and no header string is built.
			b := make([]byte, 0, len("event: frame\nid: @-9223372036854775808\ndata: ")+len(e.series)+len(body)+2)
			b = append(append(append(b, "event: frame\nid: "...), e.series...), '@')
			b = append(strconv.AppendInt(b, int64(e.seq), 10), "\ndata: "...)
			e.data = append(append(b, body...), "\n\n"...)
		}
	})
	return e.data
}

// subSlot is one subscriber's pending state for one series: the newest
// undelivered event plus the highest sequence ever accepted (delivered
// or pending), which both dedupes the connect-time catch-up against
// racing publishes and rejects out-of-order publishes.
type subSlot struct {
	pending *event
	seq     int
}

// subscriber is one /stream connection's registry entry. The serving
// goroutine owns the read side (take, the notify/done channels);
// publishers touch only offer. All slot state is guarded by mu.
type subscriber struct {
	b      *Broadcast
	series []string // drain order, fixed at Subscribe
	slots  map[string]*subSlot

	notify chan struct{} // cap 1: "something is pending"
	done   chan struct{} // closed on eviction or registry shutdown

	mu           sync.Mutex
	closed       bool
	npending     int
	pendingSince time.Time // when npending went 0 -> 1; zero when drained
}

// offer places e in the subscriber's slot for e.series, coalescing any
// undelivered predecessor, and reports whether the subscriber must be
// evicted (its pending frames have sat past the stall deadline). The
// event is retained only if accepted; the caller keeps its own
// reference either way.
func (s *subscriber) offer(e *event, now time.Time) (evict bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	sl := s.slots[e.series]
	if sl == nil {
		s.mu.Unlock()
		return false
	}
	if e.kind == eventFrame && e.seq <= sl.seq {
		// Out-of-order publish (or catch-up already covered by
		// Last-Event-ID): the subscriber has seen this or newer.
		s.mu.Unlock()
		return false
	}
	if s.npending > 0 && s.b.stall > 0 && now.Sub(s.pendingSince) > s.b.stall {
		// Slow consumer: it has had a frame waiting for longer than the
		// stall deadline and still hasn't drained. Cut it loose rather
		// than hold frame buffers (and registry slots) for a dead peer.
		s.dropAllLocked()
		s.mu.Unlock()
		close(s.done)
		return true
	}
	if sl.pending != nil {
		sl.pending.release()
		s.b.coalesced.Add(1)
	} else {
		if s.npending == 0 {
			s.pendingSince = now
		}
		s.npending++
	}
	e.retain()
	sl.pending = e
	if e.kind == eventDropped {
		// A recreated series restarts its sequence at 1; reset the guard
		// so its frames are accepted again.
		sl.seq = 0
	} else {
		sl.seq = e.seq
	}
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
	return false
}

// dropAllLocked releases every pending event and marks the subscriber
// closed. Caller holds s.mu.
func (s *subscriber) dropAllLocked() {
	for _, sl := range s.slots {
		if sl.pending != nil {
			sl.pending.release()
			sl.pending = nil
		}
	}
	s.npending = 0
	s.pendingSince = time.Time{}
	s.closed = true
}

// take moves every pending event into buf (in the fixed series order)
// and clears the stall clock. The caller owns the returned events'
// references and must release each after writing.
func (s *subscriber) take(buf []*event) []*event {
	s.mu.Lock()
	for _, name := range s.series {
		if sl := s.slots[name]; sl.pending != nil {
			buf = append(buf, sl.pending)
			sl.pending = nil
		}
	}
	s.npending = 0
	s.pendingSince = time.Time{}
	s.mu.Unlock()
	return buf
}

// Done is closed when the registry evicts or shuts down the
// subscriber; the serving goroutine selects on it.
func (s *subscriber) Done() <-chan struct{} { return s.done }

// Close unregisters the subscriber and releases anything pending.
// Idempotent; the serving goroutine defers it.
func (s *subscriber) Close() { s.b.remove(s, false) }

// BroadcastStats is a point-in-time snapshot of the broadcast layer's
// counters, surfaced in /stats.
type BroadcastStats struct {
	Subscribers int   // currently connected
	Subscribed  int64 // accepted Subscribe calls, lifetime
	Rejected    int64 // Subscribes refused by the cap
	Published   int64 // events offered to the registry (frames + drops)
	Delivered   int64 // events written to subscribers
	Coalesced   int64 // pending events superseded before delivery
	Evicted     int64 // subscribers cut for stalling past the deadline
}

// Broadcast is the per-series subscriber registry. The hub publishes
// into it on every refresh (OnFrame) and series removal (OnDrop); SSE
// handlers Subscribe and drain. All methods are safe for concurrent
// use.
type Broadcast struct {
	maxSubs int
	stall   time.Duration

	mu       sync.RWMutex
	bySeries map[string]map[*subscriber]struct{}
	count    int
	shutdown bool

	subscribed atomic.Int64
	rejected   atomic.Int64
	published  atomic.Int64
	delivered  atomic.Int64
	coalesced  atomic.Int64
	evicted    atomic.Int64
}

type broadcastConfig struct {
	maxSubscribers int
	stallTimeout   time.Duration
}

func newBroadcast(cfg broadcastConfig) *Broadcast {
	if cfg.maxSubscribers <= 0 {
		cfg.maxSubscribers = DefaultMaxSubscribers
	}
	if cfg.stallTimeout == 0 {
		cfg.stallTimeout = DefaultStallTimeout
	}
	return &Broadcast{
		maxSubs:  cfg.maxSubscribers,
		stall:    cfg.stallTimeout,
		bySeries: make(map[string]map[*subscriber]struct{}),
	}
}

// Subscribe registers a new subscriber for the given series (order is
// the delivery drain order). lastSeq seeds per-series sequence guards
// from the client's Last-Event-ID so a resumed connection is not
// re-sent the frame it already has; nil means no resume state.
func (b *Broadcast) Subscribe(series []string, lastSeq map[string]int) (*subscriber, error) {
	if len(series) == 0 {
		return nil, errors.New("server: subscribe to at least one series")
	}
	if len(series) > maxSeriesPerSubscriber {
		return nil, fmt.Errorf("server: at most %d series per subscriber", maxSeriesPerSubscriber)
	}
	sub := &subscriber{
		b:      b,
		series: series,
		slots:  make(map[string]*subSlot, len(series)),
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	for _, name := range series {
		if _, dup := sub.slots[name]; dup {
			return nil, fmt.Errorf("server: duplicate series %q in subscription", name)
		}
		sub.slots[name] = &subSlot{seq: lastSeq[name]}
	}
	b.mu.Lock()
	if b.shutdown {
		b.mu.Unlock()
		return nil, errors.New("server: shutting down")
	}
	if b.count >= b.maxSubs {
		b.mu.Unlock()
		b.rejected.Add(1)
		return nil, ErrSubscriberLimit
	}
	b.count++
	for _, name := range series {
		set := b.bySeries[name]
		if set == nil {
			set = make(map[*subscriber]struct{})
			b.bySeries[name] = set
		}
		set[sub] = struct{}{}
	}
	b.mu.Unlock()
	b.subscribed.Add(1)
	return sub, nil
}

// remove unregisters sub and releases its pending events. evicted
// distinguishes a stall eviction (counted, done already closed) from a
// normal Close.
func (b *Broadcast) remove(sub *subscriber, evicted bool) {
	b.mu.Lock()
	removed := false
	for _, name := range sub.series {
		if set := b.bySeries[name]; set != nil {
			if _, ok := set[sub]; ok {
				delete(set, sub)
				removed = true
				if len(set) == 0 {
					delete(b.bySeries, name)
				}
			}
		}
	}
	if removed {
		b.count--
	}
	b.mu.Unlock()
	if !removed {
		return
	}
	if evicted {
		b.evicted.Add(1)
	}
	sub.mu.Lock()
	alreadyClosed := sub.closed
	sub.dropAllLocked()
	sub.mu.Unlock()
	if !alreadyClosed {
		close(sub.done)
	}
}

// Publish fans one emitted frame out to every subscriber of series,
// taking ownership of the frame (the hub's emission reference). The
// warm path is allocation-free per subscriber: one event wrapper is
// shared by all of them, each offer is a slot swap plus a non-blocking
// channel send, and the frame values are never copied.
func (b *Broadcast) Publish(series string, f *asap.Frame) {
	if f == nil {
		return
	}
	e := newFrameEvent(series, f)
	b.publish(e)
}

// PublishDrop tells series' subscribers the stream ended (LRU eviction
// or a replicated tombstone). The slot's sequence guard resets so a
// recreated series' frames flow again.
func (b *Broadcast) PublishDrop(series string) {
	b.publish(newDroppedEvent(series))
}

func (b *Broadcast) publish(e *event) {
	b.published.Add(1)
	now := time.Now()
	e.at = now
	var evicted []*subscriber
	b.mu.RLock()
	for sub := range b.bySeries[e.series] {
		if sub.offer(e, now) {
			evicted = append(evicted, sub)
		}
	}
	b.mu.RUnlock()
	e.release() // the publisher's reference; slots hold their own
	for _, sub := range evicted {
		b.remove(sub, true)
	}
}

// CatchUp offers the series' current retained frame (a reference the
// caller hands over) to one subscriber through the same slot path as a
// live publish, so the sequence guard dedupes it against both the
// client's Last-Event-ID and any racing refresh.
func (b *Broadcast) CatchUp(sub *subscriber, series string, f *asap.Frame) {
	if f == nil {
		return
	}
	e := newFrameEvent(series, f)
	e.at = time.Now()
	if sub.offer(e, e.at) {
		b.remove(sub, true)
	}
	e.release()
}

// Subscribers returns the number of currently connected subscribers.
func (b *Broadcast) Subscribers() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.count
}

// Stats snapshots the broadcast counters.
func (b *Broadcast) Stats() BroadcastStats {
	return BroadcastStats{
		Subscribers: b.Subscribers(),
		Subscribed:  b.subscribed.Load(),
		Rejected:    b.rejected.Load(),
		Published:   b.published.Load(),
		Delivered:   b.delivered.Load(),
		Coalesced:   b.coalesced.Load(),
		Evicted:     b.evicted.Load(),
	}
}

// Shutdown closes every subscriber (their serving goroutines see Done)
// and refuses new ones — the first step of the server's drain, so
// long-lived streams never hold Shutdown to its deadline.
func (b *Broadcast) Shutdown() {
	b.mu.Lock()
	b.shutdown = true
	subs := make(map[*subscriber]struct{})
	for _, set := range b.bySeries {
		for sub := range set {
			subs[sub] = struct{}{}
		}
	}
	b.mu.Unlock()
	for sub := range subs {
		b.remove(sub, false)
	}
}

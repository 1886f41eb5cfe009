package server

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/asap-go/asap"
	"github.com/asap-go/asap/internal/wal"
)

// bframe builds a frame with the given sequence. The zero inner state
// means Release/Retain are pool no-ops, which is exactly what these
// registry-focused tests want.
func bframe(seq int) *asap.Frame {
	return &asap.Frame{Values: []float64{1, 2, 3}, Window: 2, Sequence: seq}
}

// drain empties the subscriber's pending slots, returning the drained
// events' (series, seq) pairs in drain order and releasing each event.
func drain(sub *subscriber) [][2]interface{} {
	var got [][2]interface{}
	for _, e := range sub.take(nil) {
		got = append(got, [2]interface{}{e.series, e.seq})
		e.release()
	}
	return got
}

func TestBroadcastFanoutExactlyOnce(t *testing.T) {
	b := newBroadcast(broadcastConfig{})
	const nsubs = 8
	subs := make([]*subscriber, nsubs)
	for i := range subs {
		sub, err := b.Subscribe([]string{"s"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs[i] = sub
	}
	for seq := 1; seq <= 5; seq++ {
		b.Publish("s", bframe(seq))
		for i, sub := range subs {
			got := drain(sub)
			if len(got) != 1 || got[0][1].(int) != seq {
				t.Fatalf("sub %d after publish %d: drained %v", i, seq, got)
			}
			// Drained means drained: nothing left until the next publish.
			if extra := drain(sub); len(extra) != 0 {
				t.Fatalf("sub %d re-drained %v", i, extra)
			}
		}
	}
	if st := b.Stats(); st.Published != 5 || st.Coalesced != 0 {
		t.Errorf("stats = %+v, want 5 published, 0 coalesced", st)
	}
}

func TestBroadcastCoalescesBurstToNewest(t *testing.T) {
	b := newBroadcast(broadcastConfig{})
	sub, err := b.Subscribe([]string{"s"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// A 64-frame burst with no reader draining in between: only the
	// newest survives in the slot, the rest are coalesced away.
	for seq := 1; seq <= 64; seq++ {
		b.Publish("s", bframe(seq))
	}
	got := drain(sub)
	if len(got) != 1 || got[0][1].(int) != 64 {
		t.Fatalf("drained %v, want just seq 64", got)
	}
	if st := b.Stats(); st.Coalesced != 63 {
		t.Errorf("coalesced = %d, want 63", st.Coalesced)
	}
}

func TestBroadcastRejectsStaleSequences(t *testing.T) {
	b := newBroadcast(broadcastConfig{})
	sub, err := b.Subscribe([]string{"s"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	b.Publish("s", bframe(5))
	// Out-of-order publish racing past the shard unlock: older or equal
	// sequences must not clobber (or re-deliver after) the newer frame.
	b.Publish("s", bframe(3))
	b.Publish("s", bframe(5))
	got := drain(sub)
	if len(got) != 1 || got[0][1].(int) != 5 {
		t.Fatalf("drained %v, want just seq 5", got)
	}
	if extra := drain(sub); len(extra) != 0 {
		t.Fatalf("stale publish re-delivered: %v", extra)
	}
}

func TestBroadcastLastEventIDSuppressesCatchUp(t *testing.T) {
	b := newBroadcast(broadcastConfig{})
	sub, err := b.Subscribe([]string{"s"}, map[string]int{"s": 7})
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	// The client said it already has seq 7: catch-up with the same (or
	// an older) frame is a no-op, a newer one flows.
	b.CatchUp(sub, "s", bframe(7))
	if got := drain(sub); len(got) != 0 {
		t.Fatalf("catch-up re-sent %v despite Last-Event-ID", got)
	}
	b.CatchUp(sub, "s", bframe(8))
	got := drain(sub)
	if len(got) != 1 || got[0][1].(int) != 8 {
		t.Fatalf("drained %v, want seq 8", got)
	}
}

func TestBroadcastDropResetsSequenceGuard(t *testing.T) {
	b := newBroadcast(broadcastConfig{})
	sub, err := b.Subscribe([]string{"s"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	b.Publish("s", bframe(9))
	drain(sub)
	b.PublishDrop("s")
	got := drain(sub)
	if len(got) != 1 || got[0][1].(int) != 0 {
		t.Fatalf("drained %v, want the dropped event", got)
	}
	// The recreated series numbers frames from 1 again; the dropped
	// event must have reset the guard so they are accepted.
	b.Publish("s", bframe(1))
	got = drain(sub)
	if len(got) != 1 || got[0][1].(int) != 1 {
		t.Fatalf("drained %v, want frame seq 1", got)
	}

	// Undrained drop + recreate collapses to just the new frame —
	// latest-wins applies to drops like anything else.
	b.PublishDrop("s")
	b.Publish("s", bframe(1))
	got = drain(sub)
	if len(got) != 1 || got[0][1].(int) != 1 {
		t.Fatalf("drained %v, want the recreated series' frame only", got)
	}
}

func TestBroadcastSlowConsumerEvicted(t *testing.T) {
	b := newBroadcast(broadcastConfig{stallTimeout: 30 * time.Millisecond})
	slow, err := b.Subscribe([]string{"s"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := b.Subscribe([]string{"s"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fast.Close()

	b.Publish("s", bframe(1))
	drain(fast) // fast keeps up; slow lets seq 1 sit
	time.Sleep(60 * time.Millisecond)
	b.Publish("s", bframe(2)) // past the stall deadline: slow is cut

	select {
	case <-slow.Done():
	default:
		t.Fatal("stalled subscriber not evicted")
	}
	if n := b.Subscribers(); n != 1 {
		t.Errorf("subscribers = %d after eviction, want 1", n)
	}
	if st := b.Stats(); st.Evicted != 1 {
		t.Errorf("evicted = %d, want 1", st.Evicted)
	}
	// The fast subscriber was not delayed or disturbed.
	got := drain(fast)
	if len(got) != 1 || got[0][1].(int) != 2 {
		t.Fatalf("fast drained %v, want seq 2", got)
	}
	slow.Close() // idempotent after eviction
}

func TestBroadcastSubscriberLimit(t *testing.T) {
	b := newBroadcast(broadcastConfig{maxSubscribers: 1})
	first, err := b.Subscribe([]string{"s"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Subscribe([]string{"s"}, nil); err != ErrSubscriberLimit {
		t.Fatalf("second Subscribe err = %v, want ErrSubscriberLimit", err)
	}
	if st := b.Stats(); st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
	first.Close()
	// Closing frees the slot.
	again, err := b.Subscribe([]string{"s"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	again.Close()
}

func TestBroadcastShutdown(t *testing.T) {
	b := newBroadcast(broadcastConfig{})
	sub, err := b.Subscribe([]string{"s"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Shutdown()
	select {
	case <-sub.Done():
	default:
		t.Fatal("Shutdown did not close the subscriber")
	}
	if _, err := b.Subscribe([]string{"s"}, nil); err == nil {
		t.Fatal("Subscribe accepted after Shutdown")
	}
	sub.Close()
	b.Shutdown() // idempotent
}

// TestBroadcastConcurrentChurn interleaves everything that can run at
// once — pushes fanning out through the hub hooks, subscribe/close
// churn, explicit Drops, LRU evictions past the series cap, and a
// mid-run SetWAL (the hub-level half of promotion) — and relies on the
// race detector for the verdict.
func TestBroadcastConcurrentChurn(t *testing.T) {
	var b *Broadcast
	cfg := HubConfig{
		Stream:    asap.StreamConfig{WindowPoints: 400, Resolution: 100, RefreshEvery: 100},
		MaxSeries: 4, // force LRU evictions (and their OnDrop fan-out)
		Shards:    2,
	}
	b = newBroadcast(broadcastConfig{stallTimeout: 10 * time.Millisecond})
	cfg.OnFrame = b.Publish
	cfg.OnDrop = b.PublishDrop
	hub, err := NewHub(cfg)
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	batch := make([]float64, 100)
	for i := range batch {
		batch[i] = float64(i % 17)
	}
	// Pushers across more series than the cap allows.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("s%d", (g+i)%6)
				if err := hub.PushBatch(name, batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Subscriber churn: subscribe, drain a little (slowly enough that
	// some get stall-evicted), close.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sub, err := b.Subscribe([]string{fmt.Sprintf("s%d", i%6), "other"}, nil)
				if err != nil {
					continue // shutdown or cap; both fine under churn
				}
				select {
				case <-sub.notify:
					for _, e := range sub.take(nil) {
						_ = e.sse()
						e.release()
					}
				case <-sub.Done():
				case <-time.After(time.Millisecond):
				}
				sub.Close()
			}
		}(g)
	}
	// Explicit tombstone-style drops.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			hub.Drop(fmt.Sprintf("s%d", i%6))
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Mid-churn promotion: attach a real WAL to the running hub.
	time.Sleep(20 * time.Millisecond)
	wlog, err := wal.Open(wal.Config{Dir: t.TempDir(), Shards: 2, HorizonPoints: 500})
	if err != nil {
		t.Fatal(err)
	}
	hub.SetWAL(wlog)

	time.Sleep(80 * time.Millisecond)
	close(stop)
	wg.Wait()
	b.Shutdown()
	if err := wlog.Close(); err != nil {
		t.Fatal(err)
	}
	if n := b.Subscribers(); n != 0 {
		t.Errorf("subscribers = %d after shutdown, want 0", n)
	}
}

// TestEventSSEMatchesConcatenation pins the wire bytes of frame and
// dropped events to the string concatenation sse() used to build them.
func TestEventSSEMatchesConcatenation(t *testing.T) {
	for _, series := range []string{"cpu", "a\"b<c>&d", "ünï.cødé", ""} {
		f := &asap.Frame{Values: []float64{1, -2.5, 1e-300, 3e21, 0}, Window: 7,
			Roughness: 0.125, Kurtosis: 3.5, SeedReused: true, Sequence: 42}
		body, err := json.Marshal(frameJSON{
			Series: series, Values: f.Values, Window: f.Window, Roughness: f.Roughness,
			Kurtosis: f.Kurtosis, SeedReused: f.SeedReused, Sequence: f.Sequence,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := []byte("event: frame\nid: " + series + "@" + strconv.Itoa(f.Sequence) +
			"\ndata: " + string(body) + "\n\n")
		if got := newFrameEvent(series, f).sse(); string(got) != string(want) {
			t.Errorf("frame event for %q:\ngot  %q\nwant %q", series, got, want)
		}

		body, _ = json.Marshal(struct {
			Series string `json:"series"`
		}{series})
		want = []byte("event: dropped\ndata: " + string(body) + "\n\n")
		if got := newDroppedEvent(series).sse(); string(got) != string(want) {
			t.Errorf("dropped event for %q:\ngot  %q\nwant %q", series, got, want)
		}
	}
}

// TestBroadcastPublishAllocsFlat checks the fan-out warm path is
// allocation-free per subscriber: publishing to 64 subscribers costs
// the same small constant number of allocations as publishing to 1
// (the frame + its shared event wrapper), because each offer is a slot
// swap and a non-blocking channel send.
func TestBroadcastPublishAllocsFlat(t *testing.T) {
	measure := func(nsubs int) float64 {
		b := newBroadcast(broadcastConfig{})
		subs := make([]*subscriber, nsubs)
		bufs := make([][]*event, nsubs)
		for i := range subs {
			sub, err := b.Subscribe([]string{"s"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			subs[i] = sub
			bufs[i] = make([]*event, 0, 4)
		}
		seq := 0
		return testing.AllocsPerRun(200, func() {
			seq++
			b.Publish("s", &asap.Frame{Values: nil, Sequence: seq})
			for i, sub := range subs {
				for _, e := range sub.take(bufs[i][:0]) {
					e.release()
				}
			}
		})
	}
	one, many := measure(1), measure(64)
	if one != many {
		t.Errorf("publish allocs: 1 sub = %.1f, 64 subs = %.1f — fan-out must not allocate per subscriber", one, many)
	}
	if one > 4 {
		t.Errorf("publish allocs = %.1f, want <= 4 (frame + event wrapper)", one)
	}
}

// BenchmarkBroadcastFanout measures one publish fanned out to N
// draining subscribers, including the SSE rendering done once by the
// first writer.
func BenchmarkBroadcastFanout(bm *testing.B) {
	for _, nsubs := range []int{1, 8, 64} {
		bm.Run(fmt.Sprintf("subs=%d", nsubs), func(bm *testing.B) {
			b := newBroadcast(broadcastConfig{})
			var wg sync.WaitGroup
			for i := 0; i < nsubs; i++ {
				sub, err := b.Subscribe([]string{"s"}, nil)
				if err != nil {
					bm.Fatal(err)
				}
				wg.Add(1)
				go func(sub *subscriber) {
					defer wg.Done()
					buf := make([]*event, 0, 4)
					for {
						select {
						case <-sub.Done():
							return
						case <-sub.notify:
							buf = sub.take(buf[:0])
							for i, e := range buf {
								_ = e.sse() // render (first drainer) or reuse
								e.release()
								buf[i] = nil
							}
						}
					}
				}(sub)
			}
			values := make([]float64, 800)
			bm.ReportAllocs()
			bm.ResetTimer()
			for i := 0; i < bm.N; i++ {
				b.Publish("s", &asap.Frame{Values: values, Window: 10, Sequence: i + 1})
			}
			bm.StopTimer()
			b.Shutdown()
			wg.Wait()
		})
	}
}

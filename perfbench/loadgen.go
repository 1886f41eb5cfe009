package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// conn is one client connection: a transport that never opens a second
// socket.
type conn struct {
	c    *http.Client
	base string
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{c: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *conn) close() { c.c.Transport.(*http.Transport).CloseIdleConnections() }

// do sends one request and drains the response; true means a 2xx
// with its whole body read.
func (c *conn) do(method, path string, b []byte) bool {
	var rd io.Reader
	if b != nil {
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return false
	}
	resp, err := c.c.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return err == nil && resp.StatusCode/100 == 2
}

// Op is one open-loop request: when it was due, when it went out, when
// it completed.
type Op struct {
	Due, Sent, Done time.Time
	OK              bool
	Backlog         int // requests due but not yet sent, this one included
}

func (o Op) Latency() time.Duration { return o.Done.Sub(o.Due) }

// openLoop issues request i at start + i/rate until end, on one
// connection, whatever the server's pace. A slow reply delays later
// sends; their latency still counts from when they were due.
func openLoop(start, end time.Time, rate float64, do func(i int) bool) []Op {
	interval := time.Duration(float64(time.Second) / rate)
	n := int(end.Sub(start) / interval)
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sent := time.Now()
		backlog := int(sent.Sub(start)/interval) + 1 - i
		if backlog < 1 {
			backlog = 1
		}
		ok := do(i)
		ops = append(ops, Op{Due: due, Sent: sent, Done: time.Now(), OK: ok, Backlog: backlog})
	}
	return ops
}

// saturated reports whether the backlog grew over the phase: the mean
// backlog of the last quarter of sends exceeds that of the first
// quarter by more than one request. Such a phase measured the queue,
// not the server's latency at the stated rate.
func saturated(ops []Op) bool {
	q := len(ops) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []Op) float64 {
		s := 0
		for _, o := range xs {
			s += o.Backlog
		}
		return float64(s) / float64(len(xs))
	}
	return mean(ops[len(ops)-q:])-mean(ops[:q]) > 1
}

// Sent is one ingest request a writer made.
type Sent struct {
	Groups []Group
	Op     Op
}

// maxClosedRate bounds the requests per second a closed-loop
// connection can send: its requests are built before the phase, this
// many per second of it. It is over twice what one connection carried
// on the machine the benchmark was sized on.
const maxClosedRate = 2500

// request is one ingest request with its body.
type request struct {
	groups []Group
	body   []byte
}

// prebuild builds the requests writer w can send in a closed-loop phase
// of length dur.
func prebuild(gen *Gen, w Writer, dur time.Duration) []request {
	reqs := make([]request, int(dur.Seconds()*maxClosedRate)+1)
	for j := range reqs {
		g := gen.nextRequest(w, j)
		reqs[j] = request{groups: g, body: body(g)}
	}
	return reqs
}

// runClosed sends reqs back to back from start until end or until they
// run out, and gives the points of the ones it did not send back to
// gen. Building them beforehand keeps the generator's formatting out of
// the loop, which then times the server.
func runClosed(c *conn, gen *Gen, reqs []request, start, end time.Time) []Sent {
	time.Sleep(time.Until(start))
	var sent []Sent
	j := 0
	for ; j < len(reqs) && time.Now().Before(end); j++ {
		t := time.Now()
		ok := c.do(http.MethodPost, "/ingest", reqs[j].body)
		sent = append(sent, Sent{Groups: reqs[j].groups, Op: Op{Due: t, Sent: t, Done: time.Now(), OK: ok, Backlog: 1}})
	}
	for _, req := range reqs[j:] {
		for _, g := range req.groups {
			gen.cursor[g.Series] -= len(g.Values)
		}
	}
	return sent
}

// runOpen drives one ingest connection for an open-loop phase,
// sending requests at w.Rate. The returned requests are in send order.
func runOpen(c *conn, gen *Gen, w Writer, start, end time.Time) []Sent {
	var sent []Sent
	// Build request j+1 and its body before waiting for its due time, so
	// the time measured from the due time is the server's.
	next := gen.nextRequest(w, 0)
	nextBody := body(next)
	ops := openLoop(start, end, w.Rate, func(j int) bool {
		ok := c.do(http.MethodPost, "/ingest", nextBody)
		sent = append(sent, Sent{Groups: next})
		next = gen.nextRequest(w, j+1)
		nextBody = body(next)
		return ok
	})
	// The last prebuilt request was never sent; give its points back.
	for _, grp := range next {
		gen.cursor[grp.Series] -= len(grp.Values)
	}
	for i := range ops {
		sent[i].Op = ops[i]
	}
	return sent
}

// Read is one reader request.
type Read struct {
	Plot bool
	Op   Op
}

func runReader(c *conn, r *Reader, start, end time.Time) []Read {
	var reads []Read
	ops := openLoop(start, end, r.Rate, func(i int) bool {
		name := seriesName(r.Series[(i/2)%len(r.Series)])
		path := "/frame?series=" + name
		if i%2 == 1 {
			path = "/plot.svg?series=" + name
		}
		ok := c.do(http.MethodGet, path, nil)
		reads = append(reads, Read{Plot: i%2 == 1})
		return ok
	})
	for i := range ops {
		reads[i].Op = ops[i]
	}
	return reads
}

// Recv is one SSE frame event as received.
type Recv struct {
	Seq int
	At  time.Time
}

// sseClient holds one /stream connection.
type sseClient struct {
	cancel context.CancelFunc
	done   chan struct{}

	mu     sync.Mutex
	recv   [][]Recv // per series, in arrival order
	frames int
	bytes  int64
	err    error // set if the stream ended before stop
}

// startSSE subscribes to the given series (at most 64, the server's
// per-stream limit) out of total.
func startSSE(base string, series []int, total int) (*sseClient, error) {
	names := make([]string, len(series))
	for i, s := range series {
		names[i] = seriesName(s)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stream?series="+strings.Join(names, ","), nil)
	if err != nil {
		cancel()
		return nil, err
	}
	tr := &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}
	resp, err := (&http.Client{Transport: tr}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("GET /stream: status %d", resp.StatusCode)
	}
	s := &sseClient{cancel: cancel, done: make(chan struct{}), recv: make([][]Recv, total)}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		s.read(ctx, resp.Body)
	}()
	return s, nil
}

// read parses the event stream. Only the id line ("<series>@<seq>") is
// decoded; the frame body is counted, not parsed.
func (s *sseClient) read(ctx context.Context, rd io.Reader) {
	br := bufio.NewReaderSize(rd, 64<<10)
	var evBytes int64
	isFrame := false
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			// A frame's data line is longer than the buffer: count it and
			// read on to its end.
			evBytes += int64(len(line))
			continue
		}
		if err != nil {
			if ctx.Err() == nil {
				s.mu.Lock()
				s.err = fmt.Errorf("stream ended: %v", err)
				s.mu.Unlock()
			}
			return
		}
		at := time.Now()
		evBytes += int64(len(line))
		switch {
		case len(line) == 1: // blank line ends the event
			if isFrame {
				s.mu.Lock()
				s.frames++
				s.bytes += evBytes
				s.mu.Unlock()
			}
			evBytes, isFrame = 0, false
		case bytes.HasPrefix(line, []byte("event: frame")):
			isFrame = true
		case bytes.HasPrefix(line, []byte("id: ")):
			id := string(bytes.TrimSpace(line[4:]))
			at0 := strings.LastIndexByte(id, '@')
			if at0 < 1 || !strings.HasPrefix(id, "s") {
				continue
			}
			idx, err1 := strconv.Atoi(id[1:at0])
			seq, err2 := strconv.Atoi(id[at0+1:])
			if err1 != nil || err2 != nil || idx >= len(s.recv) {
				continue
			}
			s.mu.Lock()
			s.recv[idx] = append(s.recv[idx], Recv{Seq: seq, At: at})
			s.mu.Unlock()
		}
	}
}

// newestSeq is the highest sequence received for series i, -1 if none.
func (s *sseClient) newestSeq(i int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.recv[i]
	if len(r) == 0 {
		return -1
	}
	return r[len(r)-1].Seq
}

func (s *sseClient) stop() error {
	s.cancel()
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// firstAtOrAfter is when the first frame of series i with sequence >= seq
// arrived.
func (s *sseClient) firstAtOrAfter(i, seq int) (time.Time, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.recv[i] {
		if r.Seq >= seq {
			return r.At, true
		}
	}
	return time.Time{}, false
}

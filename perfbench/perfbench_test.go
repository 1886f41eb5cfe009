package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	samples := make([]float64, 1000)
	for i := range samples {
		samples[len(samples)-1-i] = float64(i + 1) // 1000..1, unsorted on purpose
	}
	d := newDist(samples)
	for _, c := range []struct{ q, want float64 }{
		{0.5, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1},
	} {
		if got := d.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(newDist(nil).Quantile(0.5)) {
		t.Error("empty Quantile is not NaN")
	}
	if samples[0] != 1000 {
		t.Error("newDist sorted its caller's slice")
	}
}

// A percentile counts only with at least ten samples beyond it.
func TestSupportsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {20, 0.5, true}, {19, 0.5, false},
		{9999, 0.999, false}, {10000, 0.999, true},
	} {
		if got := newDist(make([]float64, c.n)).Supports(c.q); got != c.want {
			t.Errorf("n=%d Supports(%v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

// A stall that spoils one window moves one sample of the windowed
// median; windows too small for the quantile are left out.
func TestWindowedQuantile(t *testing.T) {
	var l Latencies
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			v := float64(i%10 + w) // window w's p90 is 8+w
			if w == 4 {
				v *= 100
			}
			l.add(w, time.Time{}, time.Time{}, v)
		}
	}
	l.add(99, time.Time{}, time.Time{}, 1e6) // one sample: no window for p90
	v, n := l.Windowed(0.9, nil)
	if n != 5 || v != 10 {
		t.Fatalf("Windowed(0.9) = %v over %d windows, want 10 over 5", v, n)
	}
	if len(l.all) != 501 {
		t.Fatalf("%d pooled samples, want 501", len(l.all))
	}
	var empty Latencies
	empty.add(0, time.Time{}, time.Time{}, 3)
	if v, n := empty.Windowed(0.9, nil); n != 0 || v != 3 {
		t.Fatalf("fallback = %v over %d windows, want the pooled 3 over 0", v, n)
	}
}

func requestBodies(seed int64) [][]byte {
	g := newGen(8, seed)
	var out [][]byte
	for _, w := range []Writer{
		{Series: seriesRange(0, 8), SeriesPerReq: 1, Points: 640},
		{Series: seriesRange(0, 8), SeriesPerReq: 4, Points: 16},
	} {
		for j := 0; j < 10; j++ {
			out = append(out, body(g.nextRequest(w, j)))
		}
	}
	for _, req := range g.warmFill() {
		out = append(out, body(req))
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b, c := requestBodies(7), requestBodies(7), requestBodies(8)
	if len(a) != len(b) {
		t.Fatalf("same seed: %d vs %d requests", len(a), len(b))
	}
	differ := 0
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("same seed: request %d differs", i)
		}
		if !bytes.Equal(a[i], c[i]) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("seeds 7 and 8 generated identical requests")
	}
}

// Every line is "name=value" and the value parses back to the same
// float64, so the server sees exactly the reference's points.
func TestBodyRoundTripsValues(t *testing.T) {
	g := newGen(2, 3)
	groups := g.nextRequest(Writer{Series: []int{0, 1}, SeriesPerReq: 2, Points: 5}, 0)
	lines := strings.Split(strings.TrimSuffix(string(body(groups)), "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("%d lines, want 10", len(lines))
	}
	for i, line := range lines {
		grp := groups[i/5]
		name, val, ok := strings.Cut(line, "=")
		if !ok || name != seriesName(grp.Series) {
			t.Fatalf("line %d = %q", i, line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || math.Float64bits(v) != math.Float64bits(grp.Values[i%5]) {
			t.Fatalf("line %d value %q, want %v", i, val, grp.Values[i%5])
		}
	}
}

// The sequence a batch produces is the streamer's closed form
// 1 + (total - first)/interval once total reaches the first refresh, and
// a batch that crosses no refresh deadline produces none.
func TestExpectedSequences(t *testing.T) {
	ref, err := newReference(1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := ref.st[0].Ratio()
	first := 4 * ratio
	deadlines := func(total int) int {
		if total < first {
			return 0
		}
		return 1 + (total-first)/ratio
	}
	g := newGen(1, 1)
	total := 0
	sizes := []int{windowPoints, 640, 16, 1, 2, 3, 16, 5, 640, 17, 18, 19}
	for k, n := range sizes {
		before := deadlines(total)
		seq := ref.apply([]Group{{Series: 0, Values: g.take(0, n)}})[0]
		total += n
		want := 0
		if after := deadlines(total); after > before {
			want = after
		}
		if seq != want {
			t.Fatalf("batch %d (%d points, total %d): sequence %d, want %d", k, n, total, seq, want)
		}
	}
}

func TestFirstFrameAtOrAfterSequence(t *testing.T) {
	t0 := time.Unix(0, 0)
	s := &sseClient{recv: [][]Recv{{{Seq: 5, At: t0}, {Seq: 8, At: t0.Add(time.Second)}}}}
	for _, c := range []struct {
		seq  int
		want time.Duration
		ok   bool
	}{{4, 0, true}, {5, 0, true}, {6, time.Second, true}, {8, time.Second, true}, {9, 0, false}} {
		at, ok := s.firstAtOrAfter(0, c.seq)
		if ok != c.ok || (ok && at.Sub(t0) != c.want) {
			t.Errorf("seq %d: got %v %v, want %v %v", c.seq, at.Sub(t0), ok, c.want, c.ok)
		}
	}
}

func TestSelfTimeFromSpanTree(t *testing.T) {
	//   request [0,100]
	//   ├── hub [200,230]     (measured in its own call)
	//   │   └── wal [400,410]
	//   └── other [300,350]
	spans := []Span{
		{Name: "request", Parent: -1, Start: 0, End: 100},
		{Name: "hub", Parent: 0, Start: 200, End: 230},
		{Name: "other", Parent: 0, Start: 300, End: 350},
		{Name: "wal", Parent: 1, Start: 400, End: 410},
	}
	want := []time.Duration{20, 20, 50, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	tr := &Tracer{spans: spans}
	if d := tr.selfDurations("request"); len(d) != 1 || d[0] != us(20) {
		t.Errorf("selfDurations(request) = %v", d)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	tr.End(tr.Begin("x", 0, -1))
	if len(tr.spans) != 0 {
		t.Fatalf("%d spans recorded with tracing off", len(tr.spans))
	}
}

func TestSaturatedOnGrowingBacklog(t *testing.T) {
	ops := func(backlog func(i int) int) []Op {
		out := make([]Op, 400)
		for i := range out {
			out[i].Backlog = backlog(i)
		}
		return out
	}
	if saturated(ops(func(i int) int { return 1 + i%3 })) {
		t.Error("steady backlog flagged as saturated")
	}
	if !saturated(ops(func(i int) int { return 1 + i/50 })) {
		t.Error("growing backlog not flagged")
	}
	// A single stall that drains again is not saturation.
	if saturated(ops(func(i int) int {
		if i >= 150 && i < 170 {
			return 20
		}
		return 1
	})) {
		t.Error("transient stall flagged as saturated")
	}
}

func TestWorkloadsValid(t *testing.T) {
	for _, w := range workloads() {
		share := 0.0
		for _, ph := range w.Phases {
			share += ph.Share
			conns := len(ph.Writers)
			if ph.SSE {
				conns++
				if n := len(ph.Writers[0].Series); n > 64 {
					t.Errorf("%s/%s: SSE on %d series, the server allows 64", w.Name, ph.Name, n)
				}
			}
			if ph.Reader != nil {
				conns++
			}
			if conns > 2 {
				t.Errorf("%s/%s: %d connections at once", w.Name, ph.Name, conns)
			}
			if len(ph.Writers) == 2 {
				seen := map[int]bool{}
				for _, wr := range ph.Writers {
					for _, s := range wr.Series {
						if seen[s] {
							t.Errorf("%s/%s: concurrent writers share series %d", w.Name, ph.Name, s)
						}
						seen[s] = true
					}
				}
			}
		}
		if math.Abs(share-1) > 1e-9 {
			t.Errorf("%s: shares sum to %v", w.Name, share)
		}
		if w.Restarts < 1 || w.CatchUps < 1 {
			t.Errorf("%s: %d restarts and %d catch-ups a round, want at least 1 each", w.Name, w.Restarts, w.CatchUps)
		}
	}
}

// BENCHMARK.json names the workloads and gated metrics this program
// reports; the two must not drift apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside perfbench: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	r := &Run{wl: workloads()[0], setupS: []Sample{{V: 1}}, satRates: []Sample{{V: 1}}, recovers: []Sample{{V: 1}}, catchups: []Sample{{V: 1}}, attempted: 1}
	got := r.endToEnd()
	if len(got) != len(spec.EndToEnd) {
		t.Errorf("program reports %d end-to-end metrics, BENCHMARK.json lists %d", len(got), len(spec.EndToEnd))
	}
	for _, m := range spec.EndToEnd {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("BENCHMARK.json metric %s (%s): program reports %+v", m.Name, m.Unit, g)
		}
	}
}

// A sample taken while the host stole CPU time is left out while at
// least half of them are quiet; otherwise the least-stolen half counts.
func TestQuietMedian(t *testing.T) {
	t0 := time.Unix(1000, 0)
	sec := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Second) }
	// Steal in CPU-seconds, cumulative, sampled once a second on 2 CPUs:
	// seconds 3 and 4 lose half the machine, the others nothing.
	c := &stealClock{cpus: 2}
	stolen := 0.0
	for i := 0; i <= 6; i++ {
		if i == 4 || i == 5 {
			stolen += 1
		}
		c.at = append(c.at, sec(i))
		c.stole = append(c.stole, stolen)
	}
	if got := c.Share(sec(3), sec(4)); got != 0.5 {
		t.Fatalf("Share over a stolen second = %v, want 0.5", got)
	}
	if got := c.Share(sec(0).Add(100*time.Millisecond), sec(1).Add(-100*time.Millisecond)); got != 0 {
		t.Fatalf("Share inside a quiet second = %v, want 0", got)
	}
	samples := make([]Sample, 6)
	for i := range samples {
		v := 1.0
		if i == 3 || i == 4 {
			v = 100 // the stolen seconds are slow
		}
		samples[i] = Sample{V: v, From: sec(i), To: sec(i + 1)}
	}
	if v, n := quietMedian(samples, c); v != 1 || n != 4 {
		t.Fatalf("quietMedian = %v over %d samples, want 1 over 4", v, n)
	}
	if v, n := quietMedian(samples, nil); v != 1 || n != 6 {
		t.Fatalf("quietMedian without a clock = %v over %d samples, want 1 over 6", v, n)
	}
	// All stolen: the least-stolen half still counts.
	busy := []Sample{samples[3], samples[4], {V: 50, From: sec(3), To: sec(5)}}
	if _, n := quietMedian(busy, c); n != 2 {
		t.Fatalf("quietMedian on a busy host used %d samples, want 2", n)
	}
}

// A closed loop sends its prebuilt requests in order and gives the
// points of the unsent ones back, so the next phase continues each
// series where the server's copy ends.
func TestRunClosedGivesBackUnsent(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body) // the body's content does not matter here
	}))
	defer srv.Close()
	g := newGen(4, 1)
	w := Writer{Series: seriesRange(0, 4), SeriesPerReq: 1, Points: 16}
	reqs := prebuild(g, w, time.Second)
	c := newConn(srv.URL)
	defer c.close()
	start := time.Now()
	sent := runClosed(c, g, reqs, start, start.Add(20*time.Millisecond))
	if len(sent) == 0 || len(sent) == len(reqs) {
		t.Fatalf("sent %d of %d requests, want some but not all", len(sent), len(reqs))
	}
	got := make([]int, 4)
	for i, s := range sent {
		if !s.Op.OK {
			t.Fatalf("request %d failed", i)
		}
		if &s.Groups[0] != &reqs[i].groups[0] {
			t.Fatalf("request %d sent out of order", i)
		}
		for _, grp := range s.Groups {
			got[grp.Series] += len(grp.Values)
		}
	}
	for s := range got {
		if g.cursor[s] != got[s] {
			t.Errorf("series %d: cursor %d after sending %d points", s, g.cursor[s], got[s])
		}
	}
}

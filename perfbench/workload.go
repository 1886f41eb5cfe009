package main

import (
	"fmt"
	"strconv"
	"time"

	"github.com/asap-go/asap/internal/datasets"
)

// Server defaults the benchmark runs under: the shipped asap-server
// flag values. Only -fsync-every varies by workload.
const (
	windowPoints = 14400
	resolution   = 800
	batchedFsync = 100 * time.Millisecond
	strictFsync  = time.Duration(0)
	// readSeries is how many series (the highest-numbered ones) the
	// writers of a read phase leave alone, so the reader measures reads
	// under other series' writes.
	readSeries = 8
)

// Workload is one traffic mix. Every workload runs the same phase kinds
// (stream, reads, saturate, restart, catch-up) so that it reports every
// end-to-end metric; what differs is the series count, the fsync mode,
// the batch shape, the rates, how the run's seconds are shared out and
// how many restarts and catch-ups each round makes.
type Workload struct {
	Name   string
	Series int
	Fsync  time.Duration
	Phases []Phase
	// Restarts and CatchUps are how many kill/restart cycles and
	// follower catch-ups each round times; recover_s and catchup_s are
	// the medians over all rounds.
	Restarts, CatchUps int
}

// Phase is one timed traffic pattern. At most two client connections
// are open during a phase.
type Phase struct {
	Name    string
	Share   float64 // share of --seconds, split evenly over the rounds
	Closed  bool    // writers send back to back instead of on a schedule
	Writers []Writer
	SSE     bool    // one /stream connection subscribed to the first writer's series
	Reader  *Reader // one connection alternating /frame and /plot.svg
}

// Writer is one ingest connection. Request j carries SeriesPerReq
// series taken round-robin from Series, Points points each.
type Writer struct {
	Rate         float64 // requests/s; ignored in a closed-loop phase
	Series       []int
	SeriesPerReq int
	Points       int
}

// Reader is one read connection at Rate requests/s over Series.
type Reader struct {
	Rate   float64
	Series []int
}

func seriesRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// workloads are sized for a 2-vCPU machine. Each open-loop connection
// runs at about half of what it can carry there: a request is due
// about twice as often as its latency, which leaves room for the host
// to steal time without the backlog growing. README.md has the numbers.
func workloads() []Workload {
	fanoutWriter := func(rate float64, series []int) Writer {
		return Writer{Rate: rate, Series: series, SeriesPerReq: 1, Points: 640}
	}
	readPhase := func(share float64, n int, writeRate, readRate float64, w func(rate float64, series []int) Writer) Phase {
		return Phase{Name: "reads", Share: share,
			Writers: []Writer{w(writeRate, seriesRange(0, n-readSeries))},
			Reader:  &Reader{Rate: readRate, Series: seriesRange(n-readSeries, n)}}
	}
	strictWriter := func(rate float64, series []int) Writer {
		return Writer{Rate: rate, Series: series, SeriesPerReq: 16, Points: 16}
	}
	return []Workload{
		{
			// Coalesced searches, parse and SSE fan-out; fsync off the ack path.
			Name:   "ingest-fanout",
			Series: 64, Fsync: batchedFsync,
			Phases: []Phase{
				{Name: "stream", Share: 0.4, SSE: true, Writers: []Writer{fanoutWriter(300, seriesRange(0, 64))}},
				readPhase(0.35, 64, 200, 300, fanoutWriter),
				{Name: "saturate", Share: 0.25, Closed: true, Writers: []Writer{fanoutWriter(0, seriesRange(0, 64))}},
			},
			Restarts: 3, CatchUps: 2,
		},
		{
			// Reads of idle series behind writers holding their shard lock.
			// Not in BENCHMARK.json: ingest-fanout runs the same reads phase.
			Name:   "dashboard-reads",
			Series: 64, Fsync: batchedFsync,
			Phases: []Phase{
				readPhase(0.45, 64, 200, 300, fanoutWriter),
				{Name: "stream", Share: 0.3, SSE: true, Writers: []Writer{fanoutWriter(300, seriesRange(0, 64))}},
				{Name: "saturate", Share: 0.25, Closed: true, Writers: []Writer{fanoutWriter(0, seriesRange(0, 64))}},
			},
			Restarts: 3, CatchUps: 2,
		},
		{
			// WAL recovery, hub restore and replication over 256 windows.
			Name:   "restart-catchup",
			Series: 256, Fsync: batchedFsync,
			Phases: []Phase{
				{Name: "stream", Share: 0.35, SSE: true, Writers: []Writer{fanoutWriter(300, seriesRange(0, 64))}},
				readPhase(0.4, 256, 100, 300, fanoutWriter),
				{Name: "saturate", Share: 0.25, Closed: true, Writers: []Writer{fanoutWriter(0, seriesRange(0, 256))}},
			},
			Restarts: 4, CatchUps: 2,
		},
		{
			// WAL append and fsync per request. Not in BENCHMARK.json: its
			// fsync-bound latencies spread across runs beyond any bound the
			// gate allows (see README.md).
			Name:   "ingest-strict",
			Series: 64, Fsync: strictFsync,
			Phases: []Phase{
				{Name: "ingest", Share: 0.45, Writers: []Writer{strictWriter(29, seriesRange(0, 32)), strictWriter(29, seriesRange(32, 64))}},
				{Name: "stream", Share: 0.13, SSE: true, Writers: []Writer{strictWriter(58, seriesRange(0, 64))}},
				readPhase(0.35, 64, 58, 250, strictWriter),
				{Name: "saturate", Share: 0.07, Closed: true, Writers: []Writer{strictWriter(0, seriesRange(0, 32)), strictWriter(0, seriesRange(32, 64))}},
			},
			Restarts: 2, CatchUps: 1,
		},
	}
}

func workloadByName(name string) (Workload, error) {
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

func seriesName(i int) string { return fmt.Sprintf("s%03d", i) }

// valuesPerSeries is the length of each generated series; longer runs
// cycle through it.
const valuesPerSeries = 4 * windowPoints

// Gen hands out each series' points in order. Series i is the paper
// dataset Catalog()[i mod 11], so periodic (Taxi, Power) and noisy
// (Twitter AAPL) series are mixed round-robin. Writers that run at the
// same time own disjoint series, so each touches only its own cursors.
type Gen struct {
	values [][]float64
	cursor []int
}

func newGen(series int, seed int64) *Gen {
	cat := datasets.Catalog()
	g := &Gen{values: make([][]float64, series), cursor: make([]int, series)}
	for i := range g.values {
		g.values[i] = cat[i%len(cat)].GenerateN(valuesPerSeries, seed*1_000_003+int64(i)).Values
	}
	return g
}

// fork is a generator over the same values with its own cursors.
func (g *Gen) fork() *Gen {
	return &Gen{values: g.values, cursor: append([]int(nil), g.cursor...)}
}

// take returns the next n points of series s.
func (g *Gen) take(s, n int) []float64 {
	out := make([]float64, n)
	vs := g.values[s]
	for i := range out {
		out[i] = vs[(g.cursor[s]+i)%len(vs)]
	}
	g.cursor[s] += n
	return out
}

// Group is one series' share of an ingest request; the server pushes
// it as one batch.
type Group struct {
	Series int
	Values []float64
}

// nextRequest builds request j of writer w.
func (g *Gen) nextRequest(w Writer, j int) []Group {
	groups := make([]Group, w.SeriesPerReq)
	for k := range groups {
		s := w.Series[(j*w.SeriesPerReq+k)%len(w.Series)]
		groups[k] = Group{Series: s, Values: g.take(s, w.Points)}
	}
	return groups
}

// warmFill is one request per series carrying a whole window, in
// series order.
func (g *Gen) warmFill() [][]Group {
	reqs := make([][]Group, len(g.values))
	for s := range reqs {
		reqs[s] = []Group{{Series: s, Values: g.take(s, windowPoints)}}
	}
	return reqs
}

// body renders groups in the line protocol, "name=value" per point,
// with values that parse back to the same float64.
func body(groups []Group) []byte {
	n := 0
	for _, g := range groups {
		n += len(g.Values) * 24
	}
	b := make([]byte, 0, n)
	for _, g := range groups {
		name := seriesName(g.Series)
		for _, v := range g.Values {
			b = append(b, name...)
			b = append(b, '=')
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
			b = append(b, '\n')
		}
	}
	return b
}

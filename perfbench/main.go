// Command perfbench is asap-server's system benchmark. It starts the
// server as a child process with the shipped defaults on loopback,
// drives it over real HTTP from one seeded load generator, checks every
// frame bit-for-bit against a reference asap.Streamer, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics of an
// in-process replay of the same inputs) as one JSON line. See
// README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"syscall"
	"time"
)

// runLimit bounds one run; the caller allows 180 seconds.
const runLimit = 170 * time.Second

// genGCPercent is the generator's GC target outside timed traffic. It
// shares the machine with the server, so it collects its garbage less
// often than Go's default and not at all while a phase runs.
const genGCPercent = 400

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line the benchmark prints.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 12, "timed seconds per run")
		traced   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced in-process replay")
		bin      = flag.String("server", "", "asap-server binary")
		workdir  = flag.String("workdir", "", "work directory for data dirs, logs and spans")
	)
	flag.Parse()
	debug.SetGCPercent(genGCPercent)
	if err := run(*workload, *seed, *seconds, *traced == 1, *bin, *workdir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, bin, workdir string) error {
	wl, err := workloadByName(name)
	if err != nil {
		return err
	}
	if bin == "" || workdir == "" {
		return fmt.Errorf("-server and -workdir are required")
	}
	dir := filepath.Join(workdir, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer stopAll()

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
			stopAll()
			os.Exit(1)
		case <-ctx.Done():
			if ctx.Err() == context.DeadlineExceeded {
				fmt.Fprintln(os.Stderr, "perfbench: run limit exceeded")
				stopAll()
				os.Exit(1)
			}
		}
	}()

	r := &Run{wl: wl, seed: seed, seconds: seconds, bin: bin, dir: dir, steal: startStealClock()}
	defer r.steal.Stop()
	if err := r.execute(ctx); err != nil {
		return err
	}
	res := Result{Correct: len(r.mismatches) == 0, Attempted: r.attempted, Failed: r.failed}
	if traced {
		layers, err := replay(ctx, r, filepath.Join(workdir, fmt.Sprintf("spans-%s-%d.json", name, seed)))
		if err != nil {
			return err
		}
		res.Metrics = layers
	} else {
		res.Metrics = r.endToEnd()
	}
	for _, m := range r.mismatches {
		fmt.Println("MISMATCH", m)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("output check failed")
	}
	return nil
}

// endToEnd prints the human-readable report and returns the gated
// metrics.
func (r *Run) endToEnd() map[string]Metric {
	out := map[string]Metric{}
	fmt.Printf("workload %s seed %d seconds %g\n", r.wl.Name, r.seed, r.seconds)
	put := func(name, unit string, v float64, n int, note string) {
		out[name] = Metric{Value: v, Unit: unit}
		fmt.Printf("%-26s %14.6g %-9s n=%-6d %s\n", name, v, unit, n, note)
	}
	// The p50 is gated. The p90 and the p99 are printed only: on a
	// shared 2-vCPU machine they move with host stalls by more than any
	// bound the gate allows (README.md has the spreads).
	quiet := func(name, unit string, samples []Sample, n int, what string) {
		v, kept := quietMedian(samples, r.steal)
		put(name, unit, v, n, fmt.Sprintf("median of %d quiet of %d %s", kept, len(samples), what))
	}
	dist := func(base string, l *Latencies) {
		v, w := l.Windowed(0.5, r.steal)
		put(base+"_p50_ms", "ms", v, len(l.all), fmt.Sprintf("median of %d quiet windows of %v", w, statWindow))
		v, w = l.Windowed(0.9, r.steal)
		fmt.Printf("%-26s %14.6g %-9s n=%-6d (not gated) median of %d quiet windows of %v\n", base+"_p90_ms", v, "ms", len(l.all), w, statWindow)
		d := newDist(l.all)
		note := "(not gated)"
		if !d.Supports(0.99) {
			note += fmt.Sprintf(" fewer than %d samples beyond p99", minBeyond)
		}
		fmt.Printf("%-26s %14.6g %-9s n=%-6d %s\n", base+"_p99_ms", d.Quantile(0.99), "ms", d.N(), note)
	}
	quiet("setup_s", "s", r.setupS, len(r.setupS), "server starts with warm fill")
	dist("ingest_ack", &r.acks)
	quiet("ingest_max_points_per_s", "points/s", r.satRates, r.satPoints, fmt.Sprintf("closed-loop windows of %v", satWindow))
	dist("deliver", &r.delivers)
	dist("read", &r.frameReads)
	dist("plot", &r.plotReads)
	quiet("recover_s", "s", r.recovers, len(r.recovers), "restarts")
	quiet("catchup_s", "s", r.catchups, len(r.catchups), "catch-ups")
	put("rss_peak_mb", "MiB", r.hwm, 1, "server VmHWM")
	fmt.Printf("%-26s %14.6g %-9s n=%-6d (not gated: zero on a clean run)\n", "failed_ratio",
		float64(r.failed)/float64(r.attempted), "fraction", r.attempted)
	fmt.Printf("%-26s %14d %-9s n=%-6d (frames after restore that differ from a never-restarted streamer)\n",
		"restore_divergent", r.divergent, "series", r.restoreChecks*r.wl.Series)
	for _, p := range r.saturatedPhases {
		fmt.Printf("SATURATED %s: backlog grew over the phase; its latencies measure the queue, not the server\n", p)
	}
	return out
}

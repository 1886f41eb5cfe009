package main

import (
	"bytes"
	"os"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// On a shared virtual machine the hypervisor sometimes runs other
// tenants on this machine's CPUs. The guest kernel counts that time as
// steal (/proc/stat). While it happens every timing stretches, whatever
// the program does, so the gated figures come from the samples taken
// while little was stolen.

// stealEvery is how often the steal clock reads /proc/stat.
const stealEvery = 20 * time.Millisecond

// maxStealShare is the share of the machine's CPU time that may have
// been stolen while a sample was taken for it to count as quiet.
const maxStealShare = 0.03

// userHZ is the unit of /proc/stat: ticks per second.
const userHZ = 100

// stealClock samples the machine's cumulative steal time.
type stealClock struct {
	mu    sync.Mutex
	at    []time.Time
	stole []float64 // cumulative CPU-seconds stolen, at at[i]
	cpus  float64

	stop chan struct{}
	done chan struct{}
}

// startStealClock starts sampling; it returns nil when the kernel does
// not report steal, and a nil clock counts every sample as quiet.
func startStealClock() *stealClock {
	if _, ok := readSteal(); !ok {
		return nil
	}
	c := &stealClock{cpus: float64(runtime.NumCPU()), stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		t := time.NewTicker(stealEvery)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *stealClock) sample() {
	v, ok := readSteal()
	if !ok {
		return
	}
	now := time.Now()
	c.mu.Lock()
	c.at = append(c.at, now)
	c.stole = append(c.stole, v)
	c.mu.Unlock()
}

// Stop ends the sampling and waits for it.
func (c *stealClock) Stop() {
	if c == nil {
		return
	}
	close(c.stop)
	<-c.done
}

// Share is the share of the machine's CPU time stolen over the
// narrowest sampled interval that holds [from, to].
func (c *stealClock) Share(from, to time.Time) float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.at)
	if n < 2 {
		return 0
	}
	// i: last sample at or before from; j: first sample at or after to.
	i := sort.Search(n, func(k int) bool { return c.at[k].After(from) }) - 1
	if i < 0 {
		i = 0
	}
	j := sort.Search(n, func(k int) bool { return !c.at[k].Before(to) })
	if j >= n {
		j = n - 1
	}
	if j <= i {
		return 0
	}
	span := c.at[j].Sub(c.at[i]).Seconds() * c.cpus
	return (c.stole[j] - c.stole[i]) / span
}

// readSteal returns the machine's cumulative steal time in CPU-seconds:
// the eighth number of the "cpu" line of /proc/stat.
func readSteal() (float64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(f[8]), 64)
	if err != nil {
		return 0, false
	}
	return v / userHZ, true
}

// Sample is one measured value and when it was taken.
type Sample struct {
	V        float64
	From, To time.Time
}

// quietMedian is the median of the samples taken while at most
// maxStealShare of the CPU time was stolen. When fewer than half are
// that quiet, it is the median of the least-stolen half instead, so a
// run on a busy host still reports, from its calmest stretches. It
// returns how many samples it used.
func quietMedian(samples []Sample, c *stealClock) (float64, int) {
	if len(samples) == 0 {
		return 0, 0
	}
	type scored struct {
		v, share float64
	}
	s := make([]scored, len(samples))
	for i, x := range samples {
		s[i] = scored{x.V, c.Share(x.From, x.To)}
	}
	sort.SliceStable(s, func(a, b int) bool { return s[a].share < s[b].share })
	keep := (len(s) + 1) / 2
	for keep < len(s) && s[keep].share <= maxStealShare {
		keep++
	}
	vs := make([]float64, keep)
	for i := range vs {
		vs[i] = s[i].v
	}
	return median(vs), keep
}

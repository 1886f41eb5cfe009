package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strconv"
)

// batch is one series' values from one ingest body, in line order.
type batch struct {
	series string
	values []float64
}

// maxLineBytes bounds a single ingest line; longer lines fail the whole
// batch with bufio.ErrTooLong rather than being truncated.
const maxLineBytes = 1 << 20

// maxSeriesNameBytes matches the WAL record format's name limit; the
// parser enforces it so a durable and a memory-only server reject the
// same inputs, with 400 before anything is applied.
const maxSeriesNameBytes = 65535

// readBody reads r to EOF into one buffer. A contentLength within limit
// sizes the buffer exactly (plus the byte the final EOF read needs), so
// a well-behaved client's body costs a single allocation; otherwise the
// buffer grows as io.ReadAll's does. r is expected to enforce limit
// itself (http.MaxBytesReader), its error surfacing unchanged.
func readBody(r io.Reader, contentLength, limit int64) ([]byte, error) {
	size := int64(512)
	if contentLength >= 0 && contentLength <= limit {
		size = contentLength + 1
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// parseIngest reads the asap-server line protocol: one point per line,
// either a bare float (routed to defaultSeries) or series=value. Blank
// lines and lines starting with '#' are skipped. Whitespace around the
// series name and value is trimmed; the first '=' splits, so values
// like "cpu=1e3" work but series names cannot contain '='.
//
// Values are grouped per series, batches in order of each series' first
// line, so Hub.Apply takes each shard lock once per series. A bare value
// and an explicit "<defaultSeries>=" line land in the same batch. The
// body is walked in place: a series name is copied to a string once per
// batch, and the first series' values fill one slice sized from the
// line count, so a single-series body costs three allocations.
//
// The whole body is parsed before anything is applied: any bad line
// makes the entire batch fail, so callers can guarantee all-or-nothing
// ingest.
func parseIngest(body []byte, defaultSeries string) ([]batch, error) {
	var (
		batches []batch
		index   map[string]int // series -> position in batches, once there are two
		cur     = -1           // the previous line's batch: bodies tend to repeat a series
	)
	bare := []byte(defaultSeries)
	lineNo := 0
	for rest := body; len(rest) > 0; {
		lineNo++
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		if len(line) >= maxLineBytes {
			return nil, bufio.ErrTooLong
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		name, valueStr := bare, line
		if i := bytes.IndexByte(line, '='); i >= 0 {
			name = bytes.TrimSpace(line[:i])
			valueStr = bytes.TrimSpace(line[i+1:])
			if len(name) == 0 {
				return nil, fmt.Errorf("line %d: empty series name", lineNo)
			}
			if len(name) > maxSeriesNameBytes {
				return nil, fmt.Errorf("line %d: series name longer than %d bytes", lineNo, maxSeriesNameBytes)
			}
			if bytes.ContainsFunc(name, isSeriesControlByte) {
				return nil, fmt.Errorf("line %d: invalid series name %q", lineNo, string(name))
			}
		}
		v, err := strconv.ParseFloat(string(valueStr), 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q", lineNo, valueStr)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("line %d: non-finite value %q", lineNo, valueStr)
		}
		if cur < 0 || batches[cur].series != string(name) {
			var ok bool
			if cur, ok = index[string(name)]; !ok {
				cur = len(batches)
				b := batch{series: string(name)}
				if cur == 0 {
					b.values = make([]float64, 0, bytes.Count(body, []byte{'\n'})+1)
				}
				batches = append(batches, b)
				if cur == 1 {
					index = map[string]int{batches[0].series: 0}
				}
				if index != nil {
					index[b.series] = cur
				}
			}
		}
		batches[cur].values = append(batches[cur].values, v)
	}
	return batches, nil
}

// isSeriesControlByte rejects control characters inside series names.
// TrimSpace only strips the ends, so an interior \r, \x00, or ESC would
// otherwise become part of the name and leak into JSON listings and
// dashboard links.
func isSeriesControlByte(r rune) bool { return r < 0x20 || r == 0x7f }

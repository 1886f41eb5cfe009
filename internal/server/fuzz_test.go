package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// point is one parsed ingest line: a value destined for a series.
type point struct {
	series string
	value  float64
}

// refParseIngest is the line-by-line bufio.Scanner parser that
// parseIngest replaced, kept unchanged as the differential reference:
// the new parser must accept exactly what this accepts, with the same
// error text, and yield the same values per series.
func refParseIngest(r io.Reader, defaultSeries string) ([]point, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	var pts []point
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, valueStr := defaultSeries, line
		if i := strings.IndexByte(line, '='); i >= 0 {
			series = strings.TrimSpace(line[:i])
			valueStr = strings.TrimSpace(line[i+1:])
			if series == "" {
				return nil, fmt.Errorf("line %d: empty series name", lineNo)
			}
			if len(series) > maxSeriesNameBytes {
				return nil, fmt.Errorf("line %d: series name longer than %d bytes", lineNo, maxSeriesNameBytes)
			}
			if strings.ContainsFunc(series, isSeriesControlByte) {
				return nil, fmt.Errorf("line %d: invalid series name %q", lineNo, series)
			}
		}
		v, err := strconv.ParseFloat(valueStr, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q", lineNo, valueStr)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("line %d: non-finite value %q", lineNo, valueStr)
		}
		pts = append(pts, point{series: series, value: v})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return pts, nil
}

// refGroup groups reference points per series in first-appearance
// order, the way Hub.Apply regrouped them before parseIngest did.
func refGroup(pts []point) []batch {
	var out []batch
	at := map[string]int{}
	for _, p := range pts {
		i, ok := at[p.series]
		if !ok {
			i = len(out)
			at[p.series] = i
			out = append(out, batch{series: p.series})
		}
		out[i].values = append(out[i].values, p.value)
	}
	return out
}

// checkAgainstRef fails t unless parseIngest and the reference agree on
// body: both reject with the same error text, or both accept with the
// same batches, values compared bit for bit.
func checkAgainstRef(t *testing.T, body []byte) []batch {
	t.Helper()
	got, err := parseIngest(body, "default")
	refPts, refErr := refParseIngest(bytes.NewReader(body), "default")
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("error %v, reference error %v\nbody: %.200q", err, refErr, body)
	}
	if err != nil {
		return nil
	}
	want := refGroup(refPts)
	if len(got) != len(want) {
		t.Fatalf("%d batches, reference %d\nbody: %.200q", len(got), len(want), body)
	}
	for i := range want {
		if got[i].series != want[i].series || len(got[i].values) != len(want[i].values) {
			t.Fatalf("batch %d: %q with %d values, reference %q with %d",
				i, got[i].series, len(got[i].values), want[i].series, len(want[i].values))
		}
		for j, v := range want[i].values {
			if math.Float64bits(got[i].values[j]) != math.Float64bits(v) {
				t.Fatalf("batch %q value %d: %v, reference %v", want[i].series, j, got[i].values[j], v)
			}
		}
	}
	return got
}

// FuzzIngestParse checks that arbitrary ingest bodies never panic the
// line-protocol parser, that it agrees with the reference Scanner
// parser on every body, that every accepted point is well-formed, and
// that accepted batches round-trip through their canonical
// "series=value" serialization to the same batches.
func FuzzIngestParse(f *testing.F) {
	seeds := []string{
		"1\n2\n3\n",
		"1.5\n-2e3\n+0.25\n",
		"cpu.load=0.93\ndisk.io=1200\ncpu.load=0.94\n",
		"mixed=1\n42\nmixed=2\n",
		"\n\n\n",
		"# comment\n1\n  # indented comment\n",
		"  spaced = 3.5 \n",
		"not-a-number\n",
		"=5\n",
		"a=\n",
		"a==5\n",
		"NaN\nInf\n-Inf\n",
		"x=NaN\n",
		"1e309\n",
		"0x1p10\n",
		"\x00\xff\n",
		"s\r\n1\r\n",
		"a\rb=1\n",
		"a\x00b=2\n",
		strings.Repeat("9", 400) + "\n",
		"a=1\r\nb=2\r\n3\r\n",
		"1\n2\na=3",
		"a=1\nb=2\na=3",
		"1\ndefault=2\n3\ndefault = 4\n",
		"\u0085a=1\u00a0\n\u00a02\u0085\n",
		"\u00a0\u0085=1\n",
		"\u00a0b=2\u00a0\n\u00a03\n",
		" \t# comment=1\n\u00a0#x\n",
		"\xc2=1\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		batches := checkAgainstRef(t, data)
		var canon strings.Builder
		for i, b := range batches {
			if b.series == "" {
				t.Fatalf("batch %d has empty series", i)
			}
			if strings.HasPrefix(b.series, "#") {
				t.Fatalf("batch %d series %q begins a comment", i, b.series)
			}
			if strings.ContainsAny(b.series, "=\n\r") {
				t.Fatalf("batch %d series %q contains protocol bytes", i, b.series)
			}
			if len(b.values) == 0 {
				t.Fatalf("batch %d (%q) is empty", i, b.series)
			}
			for _, v := range b.values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("batch %d accepted non-finite value %v", i, v)
				}
				canon.WriteString(b.series)
				canon.WriteByte('=')
				canon.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
				canon.WriteByte('\n')
			}
		}
		back, err := parseIngest([]byte(canon.String()), "default")
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\ncanonical: %q", err, canon.String())
		}
		if len(back) != len(batches) {
			t.Fatalf("round-trip %d batches != %d", len(back), len(batches))
		}
		for i := range batches {
			if back[i].series != batches[i].series || len(back[i].values) != len(batches[i].values) {
				t.Fatalf("round-trip batch %d: %q/%d != %q/%d", i,
					back[i].series, len(back[i].values), batches[i].series, len(batches[i].values))
			}
			for j := range batches[i].values {
				if back[i].values[j] != batches[i].values[j] {
					t.Fatalf("round-trip batch %d value %d: %v != %v", i, j, back[i].values[j], batches[i].values[j])
				}
			}
		}
	})
}

// TestIngestParseMaxLineBoundary pins the per-line limit against the
// reference Scanner: a line of maxLineBytes-1 bytes before its newline
// parses and one of maxLineBytes fails with bufio.ErrTooLong, with and
// without the final newline and with CRLF endings.
func TestIngestParseMaxLineBoundary(t *testing.T) {
	line := func(n int) string { // n bytes: padding then a value
		return strings.Repeat(" ", n-1) + "7"
	}
	for _, tc := range []struct {
		name    string
		body    string
		tooLong bool
	}{
		{"under", "1\n" + line(maxLineBytes-1) + "\n2\n", false},
		{"at", "1\n" + line(maxLineBytes) + "\n2\n", true},
		{"under-final", "1\n" + line(maxLineBytes-1), false},
		{"at-final", "1\n" + line(maxLineBytes), true},
		{"under-crlf", line(maxLineBytes-2) + "\r\n", false},
		{"at-crlf", line(maxLineBytes-1) + "\r\n", true},
		{"bad-line-first", "x\n" + line(maxLineBytes) + "\n", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkAgainstRef(t, []byte(tc.body))
			_, err := parseIngest([]byte(tc.body), "default")
			if got := errors.Is(err, bufio.ErrTooLong); got != tc.tooLong {
				t.Fatalf("err = %v, want too-long %v", err, tc.tooLong)
			}
		})
	}
}

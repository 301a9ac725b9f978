package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// samples is a list of latencies or sizes, one per operation.
type samples []float64

// quantile returns the nearest-rank p-quantile (p in (0,1]) and how many
// samples lie strictly beyond its rank.
func (s samples) quantile(p float64) (v float64, beyond int) {
	if len(s) == 0 {
		return 0, 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	k := int(math.Ceil(p*float64(len(c)))) - 1
	if k < 0 {
		k = 0
	}
	return c[k], len(c) - 1 - k
}

func (s samples) p50() float64 {
	v, _ := s.quantile(0.5)
	return v
}

// tailOK reports whether quantile p of n samples has at least
// minBeyond samples past it — the rule for reporting a percentile.
func tailOK(n int, p float64, minBeyond int) bool {
	k := int(math.Ceil(p*float64(n))) - 1
	return n > 0 && n-1-k >= minBeyond
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio divides, returning 0 for an empty base: a layer the workload
// bypasses reports zero work rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// span is one benchmark-side span around a call into a layer. Times
// are nanoseconds since the run started; Parent indexes the enclosing
// span (-1 for a root) and Op numbers the operation the span belongs
// to (-1 for set-up).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the timed run pays only a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index; end closes it.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// write dumps the spans as JSON lines into dir.
func (t *tracer) write(dir, name string) error {
	if t == nil || dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// promValues parses a Prometheus text exposition into name → value for
// the unlabelled samples.
func promValues(text []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %s: %w", name, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// sampler polls a gauge on its own goroutine and keeps the maximum.
type sampler struct {
	stop chan struct{}
	done chan struct{}
	max  float64
}

func startSampler(every time.Duration, read func() float64) *sampler {
	m := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			if v := read(); v > m.max {
				m.max = v
			}
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the maximum it saw.
func (m *sampler) finish() float64 {
	close(m.stop)
	<-m.done
	return m.max
}

// heapMB reads the live heap in MB without stopping the world.
func heapMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// allocatedBytes reads the process-wide cumulative heap allocation.
func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// Package telemetry is the scrapeable metrics layer of the service:
// an allocation-conscious registry of atomic counters, gauges and
// fixed-bucket histograms, plus a hand-rolled Prometheus text-format
// exposition writer in the same zero-reflection style as trace.JSONL.
//
// The hot-path contract mirrors internal/trace: observing a metric is
// lock-free (atomic adds; the histogram sum is a CAS loop over float64
// bits) and allocation-free, so the FM pass loop and the carve loop
// can feed metrics at full speed. Registration and series creation
// (Vec.With) take locks and may allocate — callers on hot paths
// resolve their series once, up front, and hold the pointer.
//
// Exposition is deterministic: families render sorted by name and
// series sorted by their label string, so two scrapes of identical
// state are byte-identical — the property the golden tests and the CI
// smoke grep rely on.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric type tags used in the exposition TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one exposition line group: a counter, gauge or histogram
// with a fixed, pre-rendered label set.
type series interface {
	// labelString returns the rendered label pairs without braces,
	// e.g. `reason="terminals"`, or "" for an unlabeled series.
	labelString() string
	// appendText appends the series' exposition lines for the family
	// name to b and returns the extended buffer.
	appendText(b []byte, name string) []byte
}

// family groups every series of one metric name.
type family struct {
	name string
	help string
	typ  string
	keys []string

	mu     sync.Mutex
	series []series
	byKey  map[string]series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns the family for name, creating it on first use and
// panicking on a type/label-schema conflict — conflicting
// registrations are programmer errors, caught at startup.
func (r *Registry) family(name, help, typ string, keys []string) *family {
	mustValidName(name)
	for _, k := range keys {
		mustValidName(k)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || len(f.keys) != len(keys) {
			panic(fmt.Sprintf("telemetry: conflicting registration of %s (%s%v vs %s%v)",
				name, f.typ, f.keys, typ, keys))
		}
		for i := range keys {
			if f.keys[i] != keys[i] {
				panic(fmt.Sprintf("telemetry: conflicting label keys for %s (%v vs %v)", name, f.keys, keys))
			}
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, keys: keys, byKey: make(map[string]series)}
	r.families[name] = f
	return f
}

// add registers a series under the family, returning the existing one
// for the same label values (idempotent With).
func (f *family) add(key string, mk func(labels string) series) series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byKey[key]; ok {
		return s
	}
	s := mk(renderLabels(f.keys, strings.Split(key, "\xff")))
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// renderLabels renders `k1="v1",k2="v2"` (no braces). An unlabeled
// series (no keys) renders "".
func renderLabels(keys, values []string) string {
	if len(keys) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	return sb.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(r)
		}
	}
	return sb.String()
}

// mustValidName panics unless name matches the Prometheus metric and
// label name grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func mustValidName(name string) {
	if name == "" {
		panic("telemetry: empty metric or label name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid metric or label name %q", name))
		}
	}
}

// WriteText renders every family in Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label
// string, so identical registry state renders byte-identically.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b []byte
	for _, f := range fams {
		f.mu.Lock()
		ser := make([]series, len(f.series))
		copy(ser, f.series)
		f.mu.Unlock()
		sort.Slice(ser, func(i, j int) bool { return ser[i].labelString() < ser[j].labelString() })

		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, escapeHelp(f.help)...)
		b = append(b, '\n')
		b = append(b, "# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.typ...)
		b = append(b, '\n')
		for _, s := range ser {
			b = s.appendText(b, f.name)
		}
	}
	_, err := w.Write(b)
	return err
}

// WriteFile snapshots the registry to path in WriteText's format. It
// writes and syncs a temporary file beside path, then renames it over
// path, so a crash mid-write never leaves a torn snapshot.
func (r *Registry) WriteFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = r.WriteText(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(h string) string {
	if !strings.ContainsAny(h, "\\\n") {
		return h
	}
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// appendSample appends one `name{labels} value\n` line with the value
// appended by app.
func appendSample(b []byte, name, labels string, app func([]byte) []byte) []byte {
	b = append(b, name...)
	if labels != "" {
		b = append(b, '{')
		b = append(b, labels...)
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = app(b)
	return append(b, '\n')
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v  atomic.Int64
	ls string
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative increments are a programmer error and panic.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("telemetry: counter decremented")
	}
	c.v.Add(n)
}

// Value returns the current total.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) labelString() string { return c.ls }

func (c *Counter) appendText(b []byte, name string) []byte {
	return appendSample(b, name, c.ls, func(b []byte) []byte {
		return strconv.AppendInt(b, c.v.Load(), 10)
	})
}

// Gauge is an integer metric that can go up and down.
type Gauge struct {
	v  atomic.Int64
	ls string
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (negative to decrement).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

func (g *Gauge) labelString() string { return g.ls }

func (g *Gauge) appendText(b []byte, name string) []byte {
	return appendSample(b, name, g.ls, func(b []byte) []byte {
		return strconv.AppendInt(b, g.v.Load(), 10)
	})
}

// gaugeFunc samples a float value at exposition time — used for
// externally owned state like the admission queue depth.
type gaugeFunc struct {
	fn func() float64
	ls string
}

func (g *gaugeFunc) labelString() string { return g.ls }

func (g *gaugeFunc) appendText(b []byte, name string) []byte {
	return appendSample(b, name, g.ls, func(b []byte) []byte {
		return appendFloat(b, g.fn())
	})
}

// atomicFloat64 is a lock-free float accumulator (CAS over bits).
type atomicFloat64 struct{ bits atomic.Uint64 }

func (f *atomicFloat64) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

func (f *atomicFloat64) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a fixed-bucket histogram with lock-free, allocation-free
// Observe. Buckets are cumulative only at exposition time; each bucket
// stores its own count so Observe touches exactly one bucket counter.
type Histogram struct {
	upper   []float64 // strictly increasing upper bounds, +Inf implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sum     atomicFloat64
	ls      string
}

func newHistogram(upper []float64, labels string) *Histogram {
	return &Histogram{
		upper:   upper,
		buckets: make([]atomic.Int64, len(upper)+1),
		ls:      labels,
	}
}

// Observe records v. The bucket scan is linear — bucket layouts are
// small (≤ ~20) and the scan is branch-predictable, which beats a
// binary search at these sizes.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations; Sum their total.
func (h *Histogram) Count() int64 { return h.count.Load() }
func (h *Histogram) Sum() float64 { return h.sum.Load() }

func (h *Histogram) labelString() string { return h.ls }

func (h *Histogram) appendText(b []byte, name string) []byte {
	cum := int64(0)
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < len(h.upper) {
			le = strconv.FormatFloat(h.upper[i], 'g', -1, 64)
		}
		labels := `le="` + le + `"`
		if h.ls != "" {
			labels = h.ls + "," + labels
		}
		v := cum
		b = appendSample(b, name+"_bucket", labels, func(b []byte) []byte {
			return strconv.AppendInt(b, v, 10)
		})
	}
	b = appendSample(b, name+"_sum", h.ls, func(b []byte) []byte {
		return appendFloat(b, h.sum.Load())
	})
	b = appendSample(b, name+"_count", h.ls, func(b []byte) []byte {
		return strconv.AppendInt(b, h.count.Load(), 10)
	})
	return b
}

func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	default:
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	}
}

// Counter registers (or returns) the unlabeled counter name.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, typeCounter, nil)
	return f.add("", func(string) series { return &Counter{} }).(*Counter)
}

// Gauge registers (or returns) the unlabeled gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, typeGauge, nil)
	return f.add("", func(string) series { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is sampled from fn at
// exposition time. Registering the same name twice panics.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.family(name, help, typeGauge, nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.byKey[""]; ok {
		panic(fmt.Sprintf("telemetry: duplicate GaugeFunc %s", name))
	}
	s := &gaugeFunc{fn: fn}
	f.byKey[""] = s
	f.series = append(f.series, s)
}

// Histogram registers (or returns) the unlabeled histogram name with
// the given strictly increasing bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	mustValidBuckets(buckets)
	f := r.family(name, help, typeHistogram, nil)
	return f.add("", func(string) series { return newHistogram(buckets, "") }).(*Histogram)
}

// CounterVec is a counter family with a fixed label-key schema.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) the counter family name with the
// given label keys.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	if len(keys) == 0 {
		panic("telemetry: CounterVec needs at least one label key")
	}
	return &CounterVec{f: r.family(name, help, typeCounter, keys)}
}

// With returns the series for the given label values, creating it on
// first use. With locks and may allocate — hot paths resolve their
// series once and hold the pointer.
func (v *CounterVec) With(values ...string) *Counter {
	key := seriesKey(v.f, values)
	return v.f.add(key, func(labels string) series { return &Counter{ls: labels} }).(*Counter)
}

// GaugeVec is a gauge family with a fixed label-key schema.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) the gauge family name with the given
// label keys.
func (r *Registry) GaugeVec(name, help string, keys ...string) *GaugeVec {
	if len(keys) == 0 {
		panic("telemetry: GaugeVec needs at least one label key")
	}
	return &GaugeVec{f: r.family(name, help, typeGauge, keys)}
}

// With returns the series for the given label values, creating it on
// first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	key := seriesKey(v.f, values)
	return v.f.add(key, func(labels string) series { return &Gauge{ls: labels} }).(*Gauge)
}

// HistogramVec is a histogram family with a fixed label-key schema and
// one shared bucket layout.
type HistogramVec struct {
	f       *family
	buckets []float64
}

// HistogramVec registers (or returns) the histogram family name with
// the given bucket layout and label keys.
func (r *Registry) HistogramVec(name, help string, buckets []float64, keys ...string) *HistogramVec {
	if len(keys) == 0 {
		panic("telemetry: HistogramVec needs at least one label key")
	}
	mustValidBuckets(buckets)
	return &HistogramVec{f: r.family(name, help, typeHistogram, keys), buckets: buckets}
}

// With returns the series for the given label values, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	key := seriesKey(v.f, values)
	return v.f.add(key, func(labels string) series { return newHistogram(v.buckets, labels) }).(*Histogram)
}

func seriesKey(f *family, values []string) string {
	if len(values) != len(f.keys) {
		panic(fmt.Sprintf("telemetry: %s wants %d label values, got %d", f.name, len(f.keys), len(values)))
	}
	return strings.Join(values, "\xff")
}

func mustValidBuckets(buckets []float64) {
	if len(buckets) == 0 {
		panic("telemetry: histogram needs at least one bucket")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic("telemetry: histogram buckets must be strictly increasing")
		}
	}
}

// ExpBuckets returns count buckets starting at start, each factor
// times the previous — the standard layout for latency and size
// distributions.
func ExpBuckets(start, factor float64, count int) []float64 {
	if start <= 0 || factor <= 1 || count < 1 {
		panic("telemetry: ExpBuckets wants start > 0, factor > 1, count >= 1")
	}
	b := make([]float64, count)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LatencyBuckets is the default request/phase latency layout: 1 ms to
// ~65 s, doubling.
func LatencyBuckets() []float64 { return ExpBuckets(0.001, 2, 17) }

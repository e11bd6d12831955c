package telemetry

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.")
	c.Inc()
	c.Add(4)
	g := r.Gauge("test_depth", "Depth.")
	g.Set(7)
	g.Add(-1)
	out := render(t, r)
	for _, want := range []string{
		"# HELP test_ops_total Operations.\n# TYPE test_ops_total counter\ntest_ops_total 5\n",
		"# HELP test_depth Depth.\n# TYPE test_depth gauge\ntest_depth 6\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if c.Value() != 5 {
		t.Fatalf("counter value %d, want 5", c.Value())
	}
}

func TestCounterVecAndEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_rejects_total", "Rejects by reason.", "reason")
	v.With("terminals").Add(2)
	v.With(`quo"te\back` + "\nline").Inc()
	// With is idempotent: the same label values return the same series.
	if v.With("terminals") != v.With("terminals") {
		t.Fatal("With not idempotent")
	}
	out := render(t, r)
	if !strings.Contains(out, `test_rejects_total{reason="terminals"} 2`) {
		t.Fatalf("missing labeled sample:\n%s", out)
	}
	if !strings.Contains(out, `test_rejects_total{reason="quo\"te\\back\nline"} 1`) {
		t.Fatalf("label value not escaped:\n%s", out)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_size", "Sizes.", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d", h.Count())
	}
	if got := h.Sum(); math.Abs(got-106) > 1e-9 {
		t.Fatalf("sum %g", got)
	}
	out := render(t, r)
	for _, want := range []string{
		`test_size_bucket{le="1"} 2`,
		`test_size_bucket{le="2"} 3`,
		`test_size_bucket{le="4"} 4`,
		`test_size_bucket{le="+Inf"} 5`,
		`test_size_sum 106`,
		`test_size_count 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramVecLabelsComposeWithLe(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("test_lat", "Latency.", []float64{1}, "endpoint")
	v.With("/jobs").Observe(0.5)
	out := render(t, r)
	for _, want := range []string{
		`test_lat_bucket{endpoint="/jobs",le="1"} 1`,
		`test_lat_bucket{endpoint="/jobs",le="+Inf"} 1`,
		`test_lat_sum{endpoint="/jobs"} 0.5`,
		`test_lat_count{endpoint="/jobs"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	depth := 3
	r.GaugeFunc("test_queue_depth", "Queue depth.", func() float64 { return float64(depth) })
	if !strings.Contains(render(t, r), "test_queue_depth 3\n") {
		t.Fatal("missing gauge func sample")
	}
	depth = 9
	if !strings.Contains(render(t, r), "test_queue_depth 9\n") {
		t.Fatal("gauge func not sampled at write time")
	}
}

// Exposition must be deterministic: families sorted by name, series by
// label string, so identical state renders byte-identically.
func TestExpositionDeterministic(t *testing.T) {
	build := func(order []string) string {
		r := NewRegistry()
		v := r.CounterVec("test_b_total", "B.", "k")
		for _, val := range order {
			v.With(val).Inc()
		}
		r.Counter("test_a_total", "A.").Inc()
		r.Gauge("test_c", "C.").Set(1)
		return render(t, r)
	}
	a := build([]string{"x", "y", "z"})
	b := build([]string{"z", "x", "y"})
	if a != b {
		t.Fatalf("exposition depends on registration order:\n%s\nvs\n%s", a, b)
	}
	iA := strings.Index(a, "test_a_total")
	iB := strings.Index(a, "test_b_total")
	iC := strings.Index(a, "test_c")
	if !(iA < iB && iB < iC) {
		t.Fatalf("families not sorted:\n%s", a)
	}
}

// WriteFile leaves exactly WriteText's bytes at the path, replacing an
// older snapshot, and no temporary file beside it.
func TestWriteFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_a_total", "A.").Add(3)
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.prom")
	if err := os.WriteFile(path, []byte("stale\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := render(t, r); string(got) != want {
		t.Fatalf("snapshot:\n%s\nwant:\n%s", got, want)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("WriteFile left %d files, want 1", len(entries))
	}
	if err := r.WriteFile(filepath.Join(dir, "missing", "metrics.prom")); err == nil {
		t.Fatal("want an error for a missing directory")
	}
}

func TestDuplicateRegistrationConflicts(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_x_total", "X.")
	// Same name, same type: idempotent.
	if r.Counter("test_x_total", "X.").Value() != 0 {
		t.Fatal("re-registration should return the existing counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting type should panic")
		}
	}()
	r.Gauge("test_x_total", "X.")
}

func TestObserveAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Ops.")
	g := r.Gauge("test_depth", "Depth.")
	h := r.Histogram("test_lat", "Lat.", LatencyBuckets())
	if avg := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.Add(1)
		h.Observe(0.017)
	}); avg != 0 {
		t.Fatalf("metric observation allocates %v times", avg)
	}
}

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Ops.")
	h := r.Histogram("test_v", "V.", []float64{1, 2, 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(w%4) + 0.5)
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 || h.Count() != 8000 {
		t.Fatalf("lost observations: %d %d", c.Value(), h.Count())
	}
	if got, want := h.Sum(), float64(2*1000*(0.5+1.5+2.5+3.5)); math.Abs(got-want) > 1e-6 {
		t.Fatalf("sum %g, want %g", got, want)
	}
}

func TestBucketHelpers(t *testing.T) {
	if got := ExpBuckets(1, 2, 4); got[0] != 1 || got[3] != 8 {
		t.Fatalf("ExpBuckets: %v", got)
	}
	lb := LatencyBuckets()
	if lb[0] != 0.001 || lb[len(lb)-1] < 60 {
		t.Fatalf("LatencyBuckets: %v", lb)
	}
}

func TestFakeClock(t *testing.T) {
	t0 := time.Unix(1000, 0)
	c := NewFakeClock(t0)
	if !c.Now().Equal(t0) {
		t.Fatal("fake clock start")
	}
	c.Advance(3 * time.Second)
	if got := c.Now().Sub(t0); got != 3*time.Second {
		t.Fatalf("advance: %v", got)
	}
	if SystemClock().Now().IsZero() {
		t.Fatal("system clock returned zero time")
	}
}

package telemetry

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
)

// /dashboard must serve a self-contained page whose bootstrap JSON island
// carries the live registry and status values, so the first paint is real data
// (and so e2e tests can assert rendering without a JS engine).
func TestDashboardHandler(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("nacho_test_runs_total", "runs").Add(42)
	h := NewHistogram([]uint64{100, 1000})
	h.Observe(50)
	h.Observe(500)
	reg.RegisterHistogram("nacho_test_wall_micros", "wall", h, Label{"engine", "ref"})

	status := func() any {
		return map[string]any{"workers": 4, "busy": 2, "runs_completed": 42}
	}
	srv, err := NewServer("127.0.0.1:0", reg, status)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /dashboard = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type = %q, want text/html", ct)
	}
	page := string(body)

	// Extract and parse the bootstrap island.
	const openTag = `<script id="bootstrap" type="application/json">`
	i := strings.Index(page, openTag)
	if i < 0 {
		t.Fatal("dashboard has no bootstrap JSON island")
	}
	rest := page[i+len(openTag):]
	j := strings.Index(rest, "</script>")
	if j < 0 {
		t.Fatal("bootstrap island not terminated")
	}
	raw := strings.ReplaceAll(rest[:j], `<\/`, `</`)
	var boot struct {
		Metrics []Sample       `json:"metrics"`
		Status  map[string]any `json:"status"`
	}
	if err := json.Unmarshal([]byte(raw), &boot); err != nil {
		t.Fatalf("bootstrap island is not valid JSON: %v\n%s", err, raw)
	}
	if got := boot.Status["runs_completed"]; got != float64(42) {
		t.Errorf("bootstrap status runs_completed = %v, want 42", got)
	}
	found := make(map[string]bool)
	for _, s := range boot.Metrics {
		found[s.Name] = true
		if s.Name == "nacho_test_wall_micros" {
			if s.Histogram == nil || s.Histogram.Count != 2 {
				t.Errorf("bootstrap histogram sample malformed: %+v", s)
			}
		}
	}
	for _, want := range []string{"nacho_test_runs_total", "nacho_test_wall_micros"} {
		if !found[want] {
			t.Errorf("bootstrap metrics missing %s", want)
		}
	}

	// The index page must link to the dashboard.
	resp, err = http.Get("http://" + srv.Addr() + "/")
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(idx), `href="/dashboard"`) {
		t.Error("index page does not link /dashboard")
	}
}

func TestHistogramQuantileMax(t *testing.T) {
	h := NewHistogram([]uint64{10, 100, 1000})
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty Quantile(0.5) = %v, want 0", got)
	}
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v) // uniform 1..100: 10 in (0,10], 90 in (10,100]
	}
	if got := h.Max(); got != 100 {
		t.Fatalf("Max = %d, want 100", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("Quantile(1) = %v, want 100 (exact max)", got)
	}
	p50 := h.Quantile(0.5)
	if p50 < 40 || p50 > 60 {
		t.Errorf("Quantile(0.5) = %v, want ~50", p50)
	}
	p95 := h.Quantile(0.95)
	if p95 < 85 || p95 > 100 {
		t.Errorf("Quantile(0.95) = %v, want ~95", p95)
	}
	// An observation past every bound lands in +Inf and clamps to max.
	h.Observe(5000)
	if got := h.Quantile(1); got != 5000 {
		t.Errorf("Quantile(1) after outlier = %v, want 5000", got)
	}
}

// TestHistogramQuantileProperties checks the quantile estimate over random
// bucket layouts and random samples: p50 <= p95 <= max, and the estimate is
// monotone in q and never exceeds the exact maximum.
func TestHistogramQuantileProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		bounds := make([]uint64, 1+rng.Intn(12))
		b := uint64(0)
		for i := range bounds {
			b += 1 + uint64(rng.Int63n(1<<uint(1+rng.Intn(20))))
			bounds[i] = b
		}
		h := NewHistogram(bounds)
		// Samples from a random sub-range, so they often cluster low in a
		// wide bucket (the case interpolation used to overshoot).
		lo := uint64(rng.Int63n(int64(b) + 1))
		span := 1 + uint64(rng.Int63n(int64(b)+1))
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			h.Observe(lo + uint64(rng.Int63n(int64(span))))
		}
		max := float64(h.Max())
		p50, p95 := h.Quantile(0.5), h.Quantile(0.95)
		if !(p50 <= p95 && p95 <= max) {
			t.Fatalf("trial %d (bounds %v, %d samples): p50 %v, p95 %v, max %v", trial, bounds, n, p50, p95, max)
		}
		prev := h.Quantile(0)
		for q := 0.01; q <= 1.0001; q += 0.01 {
			v := h.Quantile(q)
			if v < prev || v > max {
				t.Fatalf("trial %d (bounds %v): Quantile(%.2f) = %v after %v (max %v)", trial, bounds, q, v, prev, max)
			}
			prev = v
		}
	}
}

package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetryDelay(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	now := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	cap := 2 * time.Second
	for attempt := 0; attempt < 8; attempt++ {
		for _, hdr := range []string{"", "0", "1", "30", "soon", "-2",
			now.Add(3 * time.Second).UTC().Format(http.TimeFormat)} {
			d := retryDelay(hdr, attempt, cap, rnd, now)
			if d < 0 || d > cap {
				t.Fatalf("retryDelay(%q, %d) = %v, outside [0, %v]", hdr, attempt, d, cap)
			}
		}
	}

	// RFC 9110 allows delta-seconds (including 0) and HTTP-dates; both
	// must be honored, bounded by [0, cap], with the default base only
	// for absent/invalid values.
	httpDate := func(d time.Duration) string { return now.Add(d).UTC().Format(http.TimeFormat) }
	for _, tc := range []struct {
		name     string
		header   string
		attempt  int
		cap      time.Duration
		min, max time.Duration
	}{
		{"absent falls back to default base", "", 0, time.Minute, 75 * time.Millisecond, 100 * time.Millisecond},
		{"unparseable falls back to default base", "soon", 0, time.Minute, 75 * time.Millisecond, 100 * time.Millisecond},
		{"negative falls back to default base", "-2", 0, time.Minute, 75 * time.Millisecond, 100 * time.Millisecond},
		{"delta-seconds raises the base", "1", 0, time.Minute, 750 * time.Millisecond, time.Second},
		{"zero delta-seconds means retry now", "0", 0, time.Minute, 0, 0},
		{"zero delta-seconds stays zero on later attempts", "0", 3, time.Minute, 0, 0},
		{"delta-seconds clamps to cap", "30", 0, 2 * time.Second, 1500 * time.Millisecond, 2 * time.Second},
		{"HTTP-date is honored", httpDate(4 * time.Second), 0, time.Minute, 3 * time.Second, 4 * time.Second},
		{"HTTP-date in the past means retry now", httpDate(-10 * time.Second), 0, time.Minute, 0, 0},
		{"HTTP-date clamps to cap", httpDate(time.Hour), 0, 2 * time.Second, 1500 * time.Millisecond, 2 * time.Second},
		{"doubling respects cap", "1", 6, 2 * time.Second, 1500 * time.Millisecond, 2 * time.Second},
	} {
		d := retryDelay(tc.header, tc.attempt, tc.cap, rnd, now)
		if d < tc.min || d > tc.max {
			t.Errorf("%s: retryDelay(%q, attempt %d) = %v, want in [%v, %v]",
				tc.name, tc.header, tc.attempt, d, tc.min, tc.max)
		}
	}
}

// TestRunRetriesOn429 drives run() against a server that rejects every
// other request with a 429 + Retry-After: each rejection must be
// retried and reported, and every request must end in a 200.
func TestRunRetriesOn429(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%2 == 1 {
			w.Header().Set("Retry-After", "0") // retry immediately; keeps the test fast
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"server overloaded, retry later"}`))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"cached":false}`))
	}))
	defer srv.Close()

	var out strings.Builder
	err := run([]string{"-url", srv.URL, "-n", "4", "-c", "1", "-distinct", "1",
		"-size", "15", "-retries", "2", "-retry-cap", "200ms"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"status 200: 4", "429 retries: 4 across 4 requests"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunReportsExhaustedRetries: when the server never relents, the
// final status is the 429 itself.
func TestRunReportsExhaustedRetries(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	var out strings.Builder
	err := run([]string{"-url", srv.URL, "-n", "2", "-c", "2", "-distinct", "1",
		"-size", "15", "-retries", "1", "-retry-cap", "50ms"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"status 429: 2", "429 retries: 2 across 2 requests"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestPercentile pins the latency quantiles loadgen reports against
// hand-computed values: millisecond samples in, the interpolated
// percentile out as a duration.
func TestPercentile(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	four := []float64{10, 20, 30, 40}
	cases := []struct {
		name    string
		samples []float64
		p       float64
		want    time.Duration
	}{
		{"empty", nil, 50, 0},
		{"single", []float64{7}, 99, ms(7)},
		{"min", four, 0, ms(10)},
		{"max", four, 100, ms(40)},
		{"clamp-low", four, -50, ms(10)},
		{"clamp-high", four, 150, ms(40)},
		// rank 0.5*(4-1)=1.5 → halfway between 20 and 30.
		{"median-interpolated", four, 50, ms(25)},
		// rank 0.9*3=2.7 → 30 + 0.7*(40-30).
		{"p90", four, 90, ms(37)},
		// odd length: rank 0.5*2=1 lands exactly on an element.
		{"median-exact", []float64{1, 2, 100}, 50, ms(2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := percentile(tc.samples, tc.p)
			if diff := got - tc.want; diff < -time.Microsecond || diff > time.Microsecond {
				t.Errorf("percentile(%v, %g) = %v, want %v", tc.samples, tc.p, got, tc.want)
			}
		})
	}
}

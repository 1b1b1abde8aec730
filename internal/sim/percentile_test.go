package sim

import (
	"testing"
	"time"

	"axmltx/internal/sim/des"
)

// TestPercentileNearestRank pins the repo-wide percentile definition:
// nearest-rank, 1-based rank ceil(p*N). The old perf-suite definition read
// index floor(p*(N-1)), which reports the 99th percentile of 100 samples
// from the 98th value; this is the regression test against that class of
// off-by-one.
func TestPercentileNearestRank(t *testing.T) {
	xs := make([]time.Duration, 0, 100)
	for i := 1; i <= 100; i++ {
		xs = append(xs, time.Duration(i)*time.Microsecond)
	}
	cases := []struct {
		n    int
		p    float64
		want time.Duration
	}{
		{100, 0.50, 50 * time.Microsecond},
		{100, 0.99, 99 * time.Microsecond},
		{100, 1.00, 100 * time.Microsecond},
		{100, 0.001, 1 * time.Microsecond},
		{5, 0.50, 3 * time.Microsecond}, // ceil(0.5*5) = 3, the true median
		{1, 0.99, 1 * time.Microsecond},
	}
	for _, c := range cases {
		if got := des.Percentile(xs[:c.n], c.p); got != c.want {
			t.Errorf("Percentile(n=%d, p=%v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := des.Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty sample = %v, want 0", got)
	}
}

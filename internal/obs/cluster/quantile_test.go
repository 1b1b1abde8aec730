package cluster_test

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"axmltx/internal/obs"
	"axmltx/internal/obs/cluster"
	"axmltx/internal/sim/des"
)

// TestBucketQuantilePinnedToPercentile pins the bucket estimator against the
// repo-wide exact nearest-rank percentile (des.Percentile): for any sample
// set, the estimate must land within the width of the bucket containing the
// exact value — the estimator's documented error bound. Three shapes of
// latency distribution across several seeds.
func TestBucketQuantilePinnedToPercentile(t *testing.T) {
	draws := map[string]func(r *rand.Rand) time.Duration{
		"uniform": func(r *rand.Rand) time.Duration {
			return time.Duration(r.Int63n(int64(20 * time.Millisecond)))
		},
		"exponential": func(r *rand.Rand) time.Duration {
			return time.Duration(r.ExpFloat64() * float64(2*time.Millisecond))
		},
		"bimodal": func(r *rand.Rand) time.Duration {
			if r.Intn(10) == 0 {
				return 50*time.Millisecond + time.Duration(r.Int63n(int64(100*time.Millisecond)))
			}
			return 200*time.Microsecond + time.Duration(r.Int63n(int64(time.Millisecond)))
		},
	}
	for name, draw := range draws {
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			reg := obs.NewRegistry()
			h := reg.Histogram("q_test_seconds", nil)
			samples := make([]time.Duration, 1000)
			for i := range samples {
				samples[i] = draw(r)
				h.Observe(samples[i])
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			bounds, buckets := h.Bounds(), h.BucketCounts()
			for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
				exact := des.Percentile(samples, q).Seconds()
				est := cluster.BucketQuantile(bounds, buckets, q)
				tol := cluster.BucketWidth(bounds, exact)
				if math.IsInf(tol, 1) {
					// Exact value beyond the last finite bound: the estimator
					// clamps there by contract.
					if est != bounds[len(bounds)-1] {
						t.Errorf("%s seed %d q%.2f: exact %.6fs beyond bounds, estimate %.6fs did not clamp to %.6fs",
							name, seed, q, exact, est, bounds[len(bounds)-1])
					}
					continue
				}
				if diff := math.Abs(est - exact); diff > tol {
					t.Errorf("%s seed %d q%.2f: estimate %.6fs vs exact %.6fs, diff %.6fs exceeds bucket width %.6fs",
						name, seed, q, est, exact, diff, tol)
				}
			}
		}
	}
}

// TestBucketQuantileBoundaries pins the estimator's edge behavior: an empty
// histogram, a rank falling exactly on a bucket's cumulative count (the
// bucket's upper bound must come back exactly), and mass in the +Inf bucket
// (clamped to the largest finite bound).
func TestBucketQuantileBoundaries(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1}
	if got := cluster.BucketQuantile(bounds, []int64{0, 0, 0, 0}, 0.99); got != 0 {
		t.Errorf("empty histogram: got %v, want 0", got)
	}
	if got := cluster.BucketQuantile(nil, nil, 0.5); got != 0 {
		t.Errorf("nil histogram: got %v, want 0", got)
	}
	// 10 observations in the first bucket, 10 in the second: rank at q=0.5 is
	// 10, exactly the first bucket's cumulative count, so the estimate is the
	// first upper bound exactly.
	if got := cluster.BucketQuantile(bounds, []int64{10, 10, 0, 0}, 0.5); got != 0.001 {
		t.Errorf("boundary rank: got %v, want 0.001", got)
	}
	// All mass past the last finite bound: clamp.
	if got := cluster.BucketQuantile(bounds, []int64{0, 0, 0, 7}, 0.99); got != 0.1 {
		t.Errorf("+Inf clamp: got %v, want 0.1", got)
	}
	// Interpolation halfway through the second bucket.
	got := cluster.BucketQuantile(bounds, []int64{0, 10, 0, 0}, 0.5)
	want := 0.001 + (0.01-0.001)*0.5
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("interpolation: got %v, want %v", got, want)
	}
}

// TestBucketWidth pins the tolerance helper the cross-checks rely on.
func TestBucketWidth(t *testing.T) {
	bounds := []float64{0.001, 0.01, 0.1}
	cases := []struct {
		v, want float64
	}{
		{0.0005, 0.001},    // first bucket: width is the first bound
		{0.005, 0.009},     // interior
		{0.01, 0.009},      // on a bound: belongs to the bucket it closes
		{0.05, 0.09},       // last finite bucket
		{0.5, math.Inf(1)}, // beyond the last bound
		{0.001, 0.001},     // exactly the first bound
	}
	for _, c := range cases {
		got := cluster.BucketWidth(bounds, c.v)
		if math.IsInf(c.want, 1) {
			if !math.IsInf(got, 1) {
				t.Errorf("BucketWidth(%v) = %v, want +Inf", c.v, got)
			}
			continue
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("BucketWidth(%v) = %v, want %v", c.v, got, c.want)
		}
	}
	if got := cluster.BucketWidth(nil, 1); !math.IsInf(got, 1) {
		t.Errorf("BucketWidth with no bounds = %v, want +Inf", got)
	}
}

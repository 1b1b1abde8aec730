package cluster

import (
	"math"
	"sort"
)

// BucketQuantile estimates the q-quantile (0 < q <= 1) of a bucketed
// histogram, in seconds. buckets holds per-bucket counts with one final
// +Inf bucket (len(bounds)+1 entries, the obs.Series layout).
//
// The rank is the repo-wide nearest-rank definition (ceil(q*N), 1-based —
// the same rank des.Percentile selects on a sorted sample), located by a
// cumulative walk over the buckets, then linearly interpolated inside the
// containing bucket. Because the estimate lands in the same bucket as the
// exact nearest-rank sample, its error is bounded by that bucket's width
// (see BucketWidth); when the rank falls exactly on a bucket's cumulative
// count the bucket's upper bound is returned exactly. Ranks landing in the
// +Inf bucket clamp to the largest finite bound — the estimator cannot see
// past it.
func BucketQuantile(bounds []float64, buckets []int64, q float64) float64 {
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total == 0 || len(buckets) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum int64
	for i, c := range buckets {
		if cum+c < rank {
			cum += c
			continue
		}
		if i >= len(bounds) {
			break // +Inf bucket: clamp below
		}
		lower := 0.0
		if i > 0 {
			lower = bounds[i-1]
		}
		return lower + (bounds[i]-lower)*float64(rank-cum)/float64(c)
	}
	if len(bounds) == 0 {
		return 0
	}
	return bounds[len(bounds)-1]
}

// BucketWidth returns the width of the bucket containing value v — the
// documented error bound of BucketQuantile around an exact sample at v.
// Values beyond the last finite bound have no bound (+Inf).
func BucketWidth(bounds []float64, v float64) float64 {
	if len(bounds) == 0 {
		return math.Inf(1)
	}
	i := sort.SearchFloat64s(bounds, v)
	if i >= len(bounds) {
		return math.Inf(1)
	}
	if i == 0 {
		return bounds[0]
	}
	return bounds[i] - bounds[i-1]
}

// mergeBuckets adds src into dst element-wise, growing dst as needed.
func mergeBuckets(dst, src []int64) []int64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, c := range src {
		dst[i] += c
	}
	return dst
}

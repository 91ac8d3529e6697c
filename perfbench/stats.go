package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank p-quantile of values: the smallest
// value with at least p·n of the values at or below it. It is the one
// percentile rule the benchmark uses, for op_cpu_ms_p50, op_cpu_ms_p90 and
// every median. values is not modified; an empty slice yields 0.
func quantile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is quantile(values, 0.5).
func median(values []float64) float64 { return quantile(values, 0.5) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

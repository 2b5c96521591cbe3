package main

import (
	"math"
	"sort"
)

// beyondMin is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it.
const beyondMin = 10

// percentile returns the nearest-rank q-quantile of xs and whether the
// percentile rule lets it be reported.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := sorted(xs)
	k := int(math.Ceil(q*float64(n))) - 1
	k = min(max(k, 0), n-1)
	return s[k], n-(k+1) >= beyondMin
}

// hdQuantile is the Harrell-Davis estimate of the q-quantile of xs: a
// weighted mean of all the order statistics, rank i weighted by the
// chance that a Beta(q(n+1), (1-q)(n+1)) variate falls in ((i-1)/n, i/n].
// A closed loop's few dozen answers fall into groups by request kind, and
// a single order statistic jumps with whichever answer lands on the rank;
// the weighted mean does not, so its run-to-run spread is smaller. On
// thousands of answers it equals the sample quantile.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var sum, prev float64
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		sum += (cur - prev) * s[i-1]
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	// The continued fraction converges fast on this side of the mean;
	// the other side follows from I_x(a, b) = 1 - I_{1-x}(b, a).
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

// betaFrac evaluates the continued fraction of I_x(a, b) by the modified
// Lentz method.
func betaFrac(a, b, x float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// median is Python's statistics.median; 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// exclusive method, the definition the run-to-run spread is judged by.
// A single value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := sorted(xs)
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		d := float64(i*m - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

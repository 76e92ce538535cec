package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/prob"
)

// percentile returns the q-quantile of xs by linear interpolation
// between order statistics. xs is not modified; an empty xs gives NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return prob.Quantile(s, q)
}

// direction says which way a metric improves.
type direction int

const (
	lowerBetter direction = iota
	higherBetter
)

// fastQuartile aggregates one timing metric over a run's rounds: the
// 25th percentile for a metric where lower is better, the 75th where
// higher is. Interference on a shared host only ever slows a round, so
// the fast side of the rounds is the side that describes the code; a
// quartile rather than the extreme keeps one lucky round from setting
// the number.
func fastQuartile(perRound []float64, d direction) float64 {
	if d == higherBetter {
		return percentile(perRound, 0.75)
	}
	return percentile(perRound, 0.25)
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method), because
// that is the rule the acceptance check applies to ten runs.
func iqrShare(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quart := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k*(n+1))/4 - 1 // zero-based position, exclusive method
		lo := int(math.Floor(pos))
		if lo < 0 {
			return s[0]
		}
		if lo >= n-1 {
			return s[n-1]
		}
		return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
	}
	med := percentile(s, 0.5)
	if med == 0 { //lint:allow floats an exact zero median has no relative spread; anything else divides fine
		return 0
	}
	return (quart(3) - quart(1)) / math.Abs(med)
}

// counts are a round's exact outputs. Every round of a run replays the
// same seeded work, so two rounds that differ in any field mean the
// system is not deterministic (or the driver is wrong), and the run
// fails.
type counts struct {
	Cohorts  int // cohorts driven to a full classification
	Subjects int
	Tests    int // assays the simulated lab ran
	Stages   int // lab round-trips
	Correct  int // subjects classified as the drawn truth says
	Turns    int // operations attempted
	Failed   int // operations failed
}

// sameCounts reports the first round whose counts differ from round 0.
func sameCounts(rounds []counts) error {
	for i := 1; i < len(rounds); i++ {
		if rounds[i] != rounds[0] {
			return fmt.Errorf("round %d counts %+v differ from round 0 counts %+v", i, rounds[i], rounds[0])
		}
	}
	return nil
}

package main

import (
	"math"
	"sort"
	"strings"

	"enki/internal/obs"
)

// minBeyond is the tail rule: a percentile is reported only when at
// least this many samples rank above it.
const minBeyond = 10

// nearestRank returns the q-quantile of sorted (ascending) by the
// nearest-rank rule, plus the number of samples ranked above it.
func nearestRank(sorted []float64, q float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// minSamplesFor is the smallest sample count whose q-quantile has at
// least minBeyond samples above it (100 for the 90th percentile).
func minSamplesFor(q float64) int {
	for n := 1; ; n++ {
		if n-int(math.Ceil(q*float64(n))) >= minBeyond {
			return n
		}
	}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio divides num by its base den, reading 0 when the base is empty.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// seriesMatches reports whether a registry series key (name{k="v",...})
// belongs to the named family and carries every given label pair.
func seriesMatches(key, name string, labels []string) bool {
	if key != name && !strings.HasPrefix(key, name+"{") {
		return false
	}
	for i := 0; i+1 < len(labels); i += 2 {
		if !strings.Contains(key, labels[i]+"=\""+labels[i+1]+"\"") {
			return false
		}
	}
	return true
}

// tally accumulates the growth of the program's obs registry over many
// intervals (one per timed day, read from snapshots taken around it),
// so work the benchmark does between days never counts.
type tally struct {
	counters map[string]float64
	hcount   map[string]float64
	hsum     map[string]float64
}

func newTally() *tally {
	return &tally{counters: map[string]float64{}, hcount: map[string]float64{}, hsum: map[string]float64{}}
}

func (t *tally) add(before, after obs.Snapshot) {
	for k, v := range after.Counters {
		t.counters[k] += float64(v) - float64(before.Counters[k])
	}
	for k, h := range after.Histograms {
		b := before.Histograms[k]
		t.hcount[k] += float64(h.Count) - float64(b.Count)
		t.hsum[k] += h.Sum - b.Sum
	}
}

// counter sums the growth of every series of a counter family that
// carries the given label pairs.
func (t *tally) counter(name string, labels ...string) float64 {
	var total float64
	for k, v := range t.counters {
		if seriesMatches(k, name, labels) {
			total += v
		}
	}
	return total
}

// hist returns the growth in observation count and sum of a histogram
// family's matching series.
func (t *tally) hist(name string, labels ...string) (count, sum float64) {
	for k, v := range t.hsum {
		if seriesMatches(k, name, labels) {
			count += t.hcount[k]
			sum += v
		}
	}
	return count, sum
}

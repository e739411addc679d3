package main

import (
	"math"
	"sort"
)

// minP99Samples is the smallest sample count for which a p99 is
// reported: below it fewer than ten samples lie beyond the 99th
// percentile, so the figure would be one or two outliers.
const minP99Samples = 1000

// dist holds one timing's samples, all in one unit. A failed or refused
// operation is recorded with addFailed as +Inf, so it misses every
// latency limit and pushes the percentiles up instead of vanishing.
type dist struct {
	xs     []float64
	sorted bool
}

func (d *dist) add(x float64) { d.xs = append(d.xs, x); d.sorted = false }

func (d *dist) addFailed() { d.add(math.Inf(1)) }

func (d *dist) n() int { return len(d.xs) }

// quantile is the nearest-rank q-quantile (0 when there are no samples).
func (d *dist) quantile(q float64) float64 {
	if len(d.xs) == 0 {
		return 0
	}
	if !d.sorted {
		sort.Float64s(d.xs)
		d.sorted = true
	}
	i := int(math.Ceil(q*float64(len(d.xs)))) - 1
	return d.xs[min(max(i, 0), len(d.xs)-1)]
}

func (d *dist) p50() float64 { return d.quantile(0.50) }

// p99 returns the 99th percentile, refused (ok false) below
// minP99Samples samples.
func (d *dist) p99() (v float64, ok bool) {
	if len(d.xs) < minP99Samples {
		return 0, false
	}
	return d.quantile(0.99), true
}

// windowParts is how many segments a service run's window is cut into,
// each on a freshly set-up fleet.
const windowParts = 4

// subWindows is how many sub-windows each segment is cut into. Host
// slowdowns come in bursts of a second or more; 1.5 s sub-windows let
// fastestHalf leave a burst out where 6 s ones could not (NOTES.md).
const subWindows = 4

// fastestHalf pools the half of the sub-windows with the highest
// verified rate: host contention only ever slows a sub-window, so the
// fastest ones are the steadiest estimate of the service's own speed.
// It returns their rate and latency distribution. Failed requests of
// every sub-window stay in the distribution as +Inf, so they still miss
// every limit.
func fastestHalf(parts []*loopResult) (float64, *dist) {
	rate := func(r *loopResult) float64 { return float64(r.ok) / r.elapsed }
	order := append([]*loopResult(nil), parts...)
	sort.SliceStable(order, func(a, b int) bool { return rate(order[a]) > rate(order[b]) })
	keep := max(1, len(order)/2)
	var ok int64
	var secs float64
	lat := &dist{}
	for i, r := range order {
		if i < keep {
			ok += r.ok
			secs += r.elapsed
			lat.xs = append(lat.xs, r.lat.xs...) // failures included
			continue
		}
		for j := int64(0); j < r.failed; j++ {
			lat.addFailed()
		}
	}
	return float64(ok) / secs, lat
}

// minOf is the smallest of a set of set-up times.
func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

// interval is a span's extent in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a parent's duration minus the part of it that its
// children cover. Children are clipped to the parent, and overlapping
// children are counted once (the union of their intervals).
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	cur := interval{start: -1, end: -1}
	for _, c := range cs {
		if c.start > cur.end {
			covered += cur.end - cur.start
			cur = c
			continue
		}
		cur.end = max(cur.end, c.end)
	}
	covered += cur.end - cur.start
	return parent.end - parent.start - covered
}

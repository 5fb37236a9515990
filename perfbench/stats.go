package main

import (
	"runtime"
	"slices"
	"time"

	"tdfm/internal/tensor"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks, or 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// mean returns the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// frac returns num/den, or 0 when den is 0.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// memSnap is the process memory and buffer-pool state at one instant;
// the difference of two snapshots covers one measured phase.
type memSnap struct {
	totalAlloc uint64
	numGC      uint32
	pauseNS    uint64
	pool       tensor.PoolStats
}

func takeMemSnap() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{totalAlloc: m.TotalAlloc, numGC: m.NumGC, pauseNS: m.PauseTotalNs, pool: tensor.Stats()}
}

// minus returns the counters accumulated from a to s.
func (s memSnap) minus(a memSnap) memSnap {
	return memSnap{
		totalAlloc: s.totalAlloc - a.totalAlloc,
		numGC:      s.numGC - a.numGC,
		pauseNS:    s.pauseNS - a.pauseNS,
		pool: tensor.PoolStats{
			Hits:   s.pool.Hits - a.pool.Hits,
			Misses: s.pool.Misses - a.pool.Misses,
		},
	}
}

// plus returns s with the counters of d added.
func (s memSnap) plus(d memSnap) memSnap {
	return memSnap{
		totalAlloc: s.totalAlloc + d.totalAlloc,
		numGC:      s.numGC + d.numGC,
		pauseNS:    s.pauseNS + d.pauseNS,
		pool: tensor.PoolStats{
			Hits:   s.pool.Hits + d.pool.Hits,
			Misses: s.pool.Misses + d.pool.Misses,
		},
	}
}

// memMetrics reports the memory layer from d, the counters accumulated
// over the measured phases; ops is the number of operations (requests or
// cells) those phases completed.
func memMetrics(d memSnap, ops int, out map[string]float64) {
	hits, misses := float64(d.pool.Hits), float64(d.pool.Misses)
	out["tensor.pool_hit_frac"] = frac(hits, hits+misses)
	out["go.alloc_kb_per_op"] = frac(float64(d.totalAlloc)/1024, float64(ops))
	out["go.gc_cycles"] = float64(d.numGC)
	out["go.gc_pause_ms.total"] = float64(d.pauseNS) / 1e6
}

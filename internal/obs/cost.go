// Package obs is the query-level cost-accounting layer: a QueryCost record
// captured around every ROSA query that answers "what did this query cost?"
// in machine-readable form — wall time, CPU time, allocation volume, and the
// engine's own work counters — so per-request attribution and the server's
// slow-query journal speak one cost vector.
//
// The package is deliberately dependency-free (stdlib only): the engine
// (internal/rewrite) attaches a *QueryCost to its SearchStats, the rosa
// supervisor fills it, and every surface above — internal/api and the
// server — converts from here.
//
// Measurement model: a Meter brackets one query. Wall time is monotonic
// clock delta. CPU time is the process's user+system CPU delta (getrusage on
// Unix; zero elsewhere) — Go does not expose per-goroutine CPU time, so on a
// server running queries concurrently the figure over-attributes neighbors'
// cycles and is documented as an upper bound. The allocation delta is the
// process's cumulative heap allocation (runtime/metrics
// /gc/heap/allocs:bytes) across the query, with the same caveat. Both reads
// are two syscalls and one metrics.Read per query boundary — nanoseconds
// against searches that run microseconds to seconds; the NoCost toggle
// exists for ablation and for pinning that the disabled path costs nothing.
package obs

import (
	"runtime/metrics"
	"time"
)

// Degradation levels for QueryCost.DegradationLevel: how far the soft memory
// budget pushed the query down the shedding ladder.
const (
	// DegradeNone: the memory budget never fired (or none was set).
	DegradeNone = 0
	// DegradeCacheShed: the first breach shed the transition cache; the
	// search finished uncached.
	DegradeCacheShed = 1
	// DegradeStopped: the second breach stopped the search with a truncated
	// ⏱ verdict.
	DegradeStopped = 2
)

// QueryCost is one query's resource ledger: what the process spent answering
// it (wall, CPU, allocation) and what the engine did for it (states, cache
// traffic, compiled-vs-fallback match split, escalation rungs, degradation).
// The count fields are deterministic — byte-identical at any worker count,
// like verdicts — while the three resource fields are wall-clock-class
// measurements that vary run to run.
type QueryCost struct {
	// WallNS is the query's wall-clock time in nanoseconds, escalation
	// attempts included.
	WallNS int64
	// CPUNS is the process CPU time (user+system) consumed across the
	// query, in nanoseconds. An upper bound under concurrency: the process
	// delta includes whatever else ran meanwhile. Zero on platforms without
	// getrusage.
	CPUNS int64
	// AllocBytes is the process's cumulative heap-allocation delta across
	// the query (runtime/metrics /gc/heap/allocs:bytes) — allocation volume,
	// not live heap. Same concurrency caveat as CPUNS.
	AllocBytes int64
	// StatesExpanded counts distinct states the search visited (the final
	// escalation attempt's figure, same as Result.StatesExplored).
	StatesExpanded int
	// CacheHits and CacheMisses are the transition-cache lookups during the
	// query (final attempt).
	CacheHits, CacheMisses int64
	// CompiledMatches and FallbackMatches split rule attempts between the
	// compiled matchers and the generic interpreter (final attempt).
	CompiledMatches, FallbackMatches int64
	// EscalationAttempts counts budget-escalation rungs the supervisor ran
	// (1 = resolved on the first budget, or escalation disabled).
	EscalationAttempts int
	// DegradationLevel is how far memory pressure degraded the query:
	// DegradeNone, DegradeCacheShed, or DegradeStopped.
	DegradationLevel int
}

// CompiledShare is the fraction of rule attempts served by compiled
// matchers, in [0,1]; 0 when no attempts were recorded.
func (c *QueryCost) CompiledShare() float64 {
	total := c.CompiledMatches + c.FallbackMatches
	if total == 0 {
		return 0
	}
	return float64(c.CompiledMatches) / float64(total)
}

// Add accumulates o's ledger into c: resource fields and counts sum,
// escalation attempts sum (total rungs across queries), and the degradation
// level keeps the worst seen. Aggregation is how an analysis (many queries)
// or a serving window reports one cost vector.
func (c *QueryCost) Add(o *QueryCost) {
	if o == nil {
		return
	}
	c.WallNS += o.WallNS
	c.CPUNS += o.CPUNS
	c.AllocBytes += o.AllocBytes
	c.StatesExpanded += o.StatesExpanded
	c.CacheHits += o.CacheHits
	c.CacheMisses += o.CacheMisses
	c.CompiledMatches += o.CompiledMatches
	c.FallbackMatches += o.FallbackMatches
	c.EscalationAttempts += o.EscalationAttempts
	if o.DegradationLevel > c.DegradationLevel {
		c.DegradationLevel = o.DegradationLevel
	}
}

// Clone returns a copy (nil-safe) — QueryCost is flat, so a value copy is a
// deep copy; the method exists so SearchStats.Clone stays mechanical.
func (c *QueryCost) Clone() *QueryCost {
	if c == nil {
		return nil
	}
	cp := *c
	return &cp
}

// allocSample is the runtime/metrics key the allocation delta reads.
const allocSample = "/gc/heap/allocs:bytes"

// Meter brackets one query: Start captures the resource baselines, Stop
// returns the deltas as a QueryCost with the resource fields filled (the
// caller fills the engine counters from its SearchStats). The zero Meter is
// inert; Stop on it returns nil.
type Meter struct {
	started bool
	t0      time.Time
	cpu0    int64
	alloc0  uint64
}

// Start begins metering: one monotonic clock read, one getrusage, one
// runtime/metrics read.
func Start() Meter {
	return Meter{
		started: true,
		t0:      time.Now(),
		cpu0:    processCPUNS(),
		alloc0:  readAllocBytes(),
	}
}

// Stop ends metering and returns the resource deltas. Returns nil on a
// zero (never-started) Meter, so disabled cost accounting threads a nil
// ledger everywhere without branching at the call sites.
func (m Meter) Stop() *QueryCost {
	if !m.started {
		return nil
	}
	c := &QueryCost{WallNS: time.Since(m.t0).Nanoseconds()}
	if cpu := processCPUNS(); cpu > 0 && m.cpu0 > 0 && cpu >= m.cpu0 {
		c.CPUNS = cpu - m.cpu0
	}
	if alloc := readAllocBytes(); alloc >= m.alloc0 {
		c.AllocBytes = int64(alloc - m.alloc0)
	}
	return c
}

// readAllocBytes reads the process's cumulative heap allocation counter.
func readAllocBytes() uint64 {
	sample := [1]metrics.Sample{{Name: allocSample}}
	metrics.Read(sample[:])
	if sample[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return sample[0].Value.Uint64()
}

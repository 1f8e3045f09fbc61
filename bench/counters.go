package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"dosas"
)

// procUsage is what the process has consumed: CPU time (user + system)
// and heap allocations. Reading it stops nothing, so drive reads it at
// every phase boundary.
type procUsage struct {
	cpu        time.Duration
	allocBytes uint64
	allocs     uint64
}

func readProcUsage() procUsage {
	var u procUsage
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	u.allocBytes, u.allocs = s[0].Value.Uint64(), s[1].Value.Uint64()
	return u
}

func (u procUsage) sub(v procUsage) procUsage {
	return procUsage{u.cpu - v.cpu, u.allocBytes - v.allocBytes, u.allocs - v.allocs}
}

func (u *procUsage) add(v procUsage) {
	u.cpu += v.cpu
	u.allocBytes += v.allocBytes
	u.allocs += v.allocs
}

// counters is one reading of what the per-layer counter metrics are
// deltas of, besides procUsage: the servers' registries and tenant tables
// through the public API, and the process's GC pauses and peak memory.
type counters struct {
	at        time.Time
	data      map[string]int64 // counter name → sum over storage nodes
	waitNanos uint64           // gate + queue wait, all tenants
	decisions dosas.DecisionMetrics
	maxRSSKB  int64
	gcPause   time.Duration
}

// readCounters reads every cluster's counters. Scheduling decisions come
// from the last cluster, which on active_sched is the DOSAS one.
func readCounters(cs []cluster) counters {
	c := counters{at: time.Now(), data: make(map[string]int64)}
	for _, cl := range cs {
		for node, snap := range cl.stats() {
			if node == "meta" {
				continue
			}
			for name, v := range snap.Counters {
				c.data[name] += v
			}
		}
		for _, rep := range cl.tenants() {
			for _, u := range rep.Usage {
				c.waitNanos += u.QueueWaitNanos
			}
		}
	}
	c.decisions = cs[len(cs)-1].decisions()
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		c.maxRSSKB = ru.Maxrss
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c.gcPause = time.Duration(mem.PauseTotalNs)
	return c
}

// ratio is a/b, or 0 when b is 0 (the workload did none of that work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns two readings around a timed window into the
// per-layer counter metrics that counterDefs lists. Client, servers and harness share one
// process, so the proc.* rows include the load generator itself.
func counterMetrics(before, after counters, w *window) map[string]Summary {
	d := func(name string) float64 { return float64(after.data[name] - before.data[name]) }
	ops := float64(w.ops())
	secs := after.at.Sub(before.at).Seconds()
	read := d("data.bytes_read")
	now, was := after.decisions, before.decisions
	arrivals := float64(now.Arrivals - was.Arrivals)
	return map[string]Summary{
		"wire.copied_bytes_per_byte":   scalar("ratio", ratio(d("wire.copied_bytes")+d("data.bytes_copied"), read)),
		"wire.sendfile_bytes_per_byte": scalar("ratio", ratio(d("wire.sendfile_bytes"), read)),
		"wire.writev_calls_per_op":     scalar("1/op", ratio(d("wire.writev_calls"), ops)),
		"pfs.gate_wait_us_per_op":      scalar("us", ratio(float64(after.waitNanos-before.waitNanos)/1e3, ops)),
		"core.bounce_rate":             scalar("ratio", ratio(float64(now.Bounced-was.Bounced), arrivals)),
		"core.interrupt_rate":          scalar("ratio", ratio(float64(now.Interrupted-was.Interrupted), arrivals)),
		"core.migrated_per_req":        scalar("ratio", ratio(float64(now.Migrated-was.Migrated), arrivals)),
		"core.estimator_err_pct":       scalar("%", now.EstimatorErrPct),
		"proc.cpu_us_per_op":           scalar("us", ratio(float64(w.proc.cpu)/1e3, ops)),
		"proc.alloc_bytes_per_op":      scalar("B/op", ratio(float64(w.proc.allocBytes), ops)),
		"proc.allocs_per_op":           scalar("1/op", ratio(float64(w.proc.allocs), ops)),
		"proc.gc_pause_us_per_s":       scalar("us/s", ratio(float64(after.gcPause-before.gcPause)/1e3, secs)),
		"proc.peak_rss_mb":             scalar("MB", float64(after.maxRSSKB)/1024),
	}
}

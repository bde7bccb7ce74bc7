package gigaflow

import (
	"fmt"
	"sync"

	"gigaflow/internal/conntrack"
	"gigaflow/internal/flow"
	gfcache "gigaflow/internal/gigaflow"
	"gigaflow/internal/megaflow"
	"gigaflow/internal/microflow"
	"gigaflow/internal/telemetry"
)

// VSwitch couples a hardware flow cache with the software slowpath: the
// complete Figure 5 workflow. Packets are first classified by the cache;
// on a miss the flow signature runs through the userspace pipeline, the
// resulting traversal is partitioned and compiled into cache rules, and
// the rules are installed so subsequent packets — including packets of
// *other* flows sharing sub-traversals — hit in hardware.
//
// VSwitch is not safe for concurrent use; drive it from one goroutine (the
// paper's configurations dedicate a single CPU core to the slowpath).
type VSwitch struct {
	pipe *Pipeline
	gf   *gfcache.Cache
	mf   *megaflow.Cache  // optional alternative backend
	uf   *microflow.Cache // optional exact-match first level
	ct   *conntrack.Table // optional connection tracking (stateful datapath)

	maxIdle   int64
	ctMaxIdle int64                      // conntrack idle expiry, independent of the cache tiers'
	rec       *telemetry.LatencyRecorder // optional latency attribution, flight ring and sampled traces
	slowMu    *sync.Mutex                // optional slow-path traversal lock (async upcall mode)
	stats     VSwitchStats

	// Per-tier lookup counter accumulators the kernel threads through a
	// call and flushes at its end. They live here, built once, so a
	// one-packet call pays no per-call setup for them.
	ufb microflow.BatchLookup
	gfb gfcache.BatchLookup
	mfb megaflow.BatchLookup
}

// VSwitchStats counts end-to-end events.
//
// The cache hierarchy has two levels, counted separately: MicroflowHits
// are exact-match first-level hits, CacheHits are main-cache (Gigaflow or
// Megaflow) hits. Every packet is exactly one of MicroflowHits, CacheHits,
// or CacheMisses.
type VSwitchStats struct {
	Packets       uint64 `json:"packets"`
	MicroflowHits uint64 `json:"microflow_hits"` // exact-match first-level hits (if enabled)
	CacheHits     uint64 `json:"cache_hits"`     // main-cache hits (excludes microflow)
	CacheMisses   uint64 `json:"cache_misses"`
	Slowpath      uint64 `json:"slowpath"` // traversals executed
	Installs      uint64 `json:"installs"`
	InstallErrs   uint64 `json:"install_errs"`

	// Conntrack-mode counters; always zero when tracking is disabled.
	CtFastpath    uint64 `json:"ct_fastpath,omitempty"`    // microflow hits served under the epoch guard
	CtGuardFails  uint64 `json:"ct_guard_fails,omitempty"` // microflow entries dropped by the guard
	CtInvalidated uint64 `json:"ct_invalidated,omitempty"` // main-cache entries removed on stale epoch
}

// HitRate reports the main cache's hit rate over the packets that reached
// it: CacheHits / (CacheHits + CacheMisses). Packets absorbed by the
// Microflow tier never consult the main cache and are excluded; use
// TotalHitRate for the combined hierarchy rate the paper reports.
func (s *VSwitchStats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// TotalHitRate reports the combined cache-hierarchy hit rate over all
// packets: (MicroflowHits + CacheHits) / Packets. This is the rate the
// paper's end-to-end figures quote; without a Microflow tier it equals
// HitRate.
func (s *VSwitchStats) TotalHitRate() float64 {
	if s.Packets == 0 {
		return 0
	}
	return float64(s.MicroflowHits+s.CacheHits) / float64(s.Packets)
}

// VSwitchOption configures a VSwitch.
type VSwitchOption func(*VSwitch)

// WithMaxIdle enables idle expiry of cache entries (§4.3.2); call
// ExpireIdle periodically with the current virtual time.
func WithMaxIdle(ns int64) VSwitchOption {
	return func(v *VSwitch) { v.maxIdle = ns }
}

// WithMegaflowBackend replaces the Gigaflow cache with a Megaflow cache of
// the given capacity — the baseline configuration, useful for comparisons.
// NewVSwitch then ignores its CacheConfig, which may be zero.
func WithMegaflowBackend(capacity int) VSwitchOption {
	return func(v *VSwitch) { v.mf = megaflow.New(capacity) }
}

// WithMicroflow fronts the main cache with an exact-match Microflow tier
// of the given capacity, completing the OVS cache hierarchy (§2.1). It is
// invalidated wholesale on revalidation, as OVS does — exact entries carry
// no wildcard to recheck incrementally.
func WithMicroflow(capacity int) VSwitchOption {
	return func(v *VSwitch) { v.uf = microflow.New(capacity) }
}

// WithLatencyRecorder attaches a latency attribution layer: every packet
// is timed (exactly on cold paths, run-estimated on hit runs — see
// telemetry.LatencyRecorder), attributed to the tier that resolved it,
// and logged into the recorder's flight ring. A recorder built with a
// trace sampling rate also traces 1-in-N packets: each sampled packet
// records every stage it touches (microflow lookup, per-LTM-table
// matches, slowpath traversal, rule installation) with per-stage
// nanosecond timings, finished from the same exact stamp as its
// FlightTraced record. With sampling off a packet pays one branch on a
// per-call local. Like the VSwitch itself the recorder is
// single-threaded; give each VSwitch its own.
func WithLatencyRecorder(r *telemetry.LatencyRecorder) VSwitchOption {
	return func(v *VSwitch) { v.rec = r }
}

// WithSlowpathLock serializes every inline pipeline traversal this
// VSwitch performs (miss punts, overflow fallbacks, follower replays)
// against mu. The pipeline's TSS classifier keeps mutable per-lookup
// state, so when an external upcall engine traverses the same pipeline
// replica from its own goroutine, both sides must hold the same lock;
// the engine locks mu around its traversals, the VSwitch locks it here.
// The cache tiers and counters stay single-threaded on the goroutine
// driving the switch — only the traversal is contended. A nil mu (the
// default) keeps the slow path lock-free for strictly synchronous use.
func WithSlowpathLock(mu *sync.Mutex) VSwitchOption {
	return func(v *VSwitch) { v.slowMu = mu }
}

// NewVSwitch builds a vSwitch around a pipeline with a Gigaflow cache of
// the given configuration, or with the Megaflow cache WithMegaflowBackend
// chose.
func NewVSwitch(p *Pipeline, cfg CacheConfig, opts ...VSwitchOption) *VSwitch {
	v := &VSwitch{pipe: p}
	for _, o := range opts {
		o(v)
	}
	if v.mf == nil {
		v.gf = gfcache.New(p, cfg)
	}
	v.ufb, v.gfb, v.mfb = v.uf.BatchLookup(), v.gf.BatchLookup(), v.mf.BatchLookup() // nil-safe
	return v
}

// Pipeline returns the slowpath pipeline.
func (v *VSwitch) Pipeline() *Pipeline { return v.pipe }

// Cache returns the Gigaflow cache, or nil when running with the Megaflow
// backend.
func (v *VSwitch) Cache() *gfcache.Cache { return v.gf }

// Megaflow returns the Megaflow cache, or nil when running with the
// Gigaflow backend.
func (v *VSwitch) Megaflow() *megaflow.Cache { return v.mf }

// Microflow returns the exact-match first-level cache, or nil when the
// tier is disabled.
func (v *VSwitch) Microflow() *microflow.Cache { return v.uf }

// Stats returns a snapshot of the counters.
func (v *VSwitch) Stats() VSwitchStats { return v.stats }

// Recorder returns the attached latency recorder, or nil. Its methods
// must run on the goroutine driving the switch.
func (v *VSwitch) Recorder() *telemetry.LatencyRecorder { return v.rec }

// ProcessResult describes one packet's handling.
type ProcessResult struct {
	Verdict Verdict
	Final   Key
	// CacheHit reports whether a cache (Microflow or the main cache)
	// handled the packet without the slowpath.
	CacheHit bool
	// MicroflowHit reports whether the exact-match first level served it.
	MicroflowHit bool
}

// Process handles one packet at virtual time now (nanoseconds): Microflow
// exact-match (if enabled), main cache lookup, slowpath on miss, rule
// installation. It is a one-packet call of the datapath kernel (process),
// whose loop body is the entire per-packet cost of a cache hit.
//
//gf:hotpath
func (v *VSwitch) Process(k Key, now int64) (ProcessResult, error) {
	return v.ProcessMeta(k, 0, now)
}

// ProcessMeta is Process with packet metadata the flow key does not
// carry: the TCP flag byte, which drives the conntrack state machine
// when connection tracking is enabled (and is ignored otherwise). With
// conntrack on, the packet is tracked, its ct_state bits are folded into
// the key the main cache and slowpath see, connection-dependent cache
// entries are validated against the connection's current epoch on every
// hit, and memoized microflow results serve only under the ctServe
// guard. With conntrack off the body reduces exactly to the stateless
// datapath.
//
//gf:hotpath
func (v *VSwitch) ProcessMeta(k Key, tcpFlags uint8, now int64) (ProcessResult, error) {
	var keys [1]Key
	keys[0] = k
	flags := [1]uint8{tcpFlags}
	var out [1]ProcessResult
	var errs [1]error
	v.process(keys[:], flags[:], out[:], errs[:], nil, now)
	return out[0], errs[0]
}

// ProcessBatch handles len(keys) packets at virtual time now, writing
// packet i's result to out[i] and its error to errs[i]; out and errs must
// be at least len(keys) long. It is semantically identical to calling
// Process(keys[i], now) in order — packets are processed strictly
// in sequence through the full hierarchy, so a miss's installed rules and
// Microflow memoization are visible to later packets in the same batch and
// the resulting VSwitchStats match a sequential replay exactly. What
// batching buys is amortized bookkeeping: counters are flushed once per
// batch instead of once per packet.
//
//gf:hotpath
func (v *VSwitch) ProcessBatch(keys []Key, out []ProcessResult, errs []error, now int64) {
	v.process(keys, nil, out, errs, nil, now)
}

// ProcessBatchMeta is ProcessBatch with per-packet TCP flag bytes for the
// conntrack state machine; flags may be nil (all packets read as
// flagless) and is otherwise indexed in step with keys. See ProcessMeta
// for the conntrack semantics.
//
//gf:hotpath
func (v *VSwitch) ProcessBatchMeta(keys []Key, flags []uint8, out []ProcessResult, errs []error, now int64) {
	v.process(keys, flags, out, errs, nil, now)
}

// process is the datapath kernel: the one copy of the Figure 5 cascade
// that every entry point runs. Per packet: Microflow exact match (served
// under the ctServe guard), conntrack, main-cache lookup (validated
// against connection epochs), and on a miss either the inline slow path
// or a parked slot. Packets run strictly in sequence, so a miss's
// installs and memoization are visible to later packets of the same call.
//
// flags holds per-packet TCP flag bytes (nil reads as flagless). parked
// is the miss policy: nil runs misses inline; otherwise a miss sets
// parked[i], zeroes out[i], and counts nothing (see park.go). A packet
// the recorder samples for a trace takes exactly the path an unsampled
// one would; its stages are recorded behind the traced branch through
// //gf:hotpath-safe hooks.
//
// VSwitch counters and each cache tier's lookup counters accumulate in
// locals and flush once per call; the cold callees (miss, the ct guards)
// update v.stats directly, and the two never count the same event.
//
//gf:hotpath
func (v *VSwitch) process(keys []Key, flags []uint8, out []ProcessResult, errs []error, parked []bool, now int64) {
	if len(keys) == 0 {
		return
	}
	_ = out[len(keys)-1]
	_ = errs[len(keys)-1]
	if flags != nil {
		_ = flags[len(keys)-1]
	}
	if parked != nil {
		_ = parked[len(keys)-1]
	}
	var parks, ufHits, mainHits uint64
	ufb, gfb, mfb := &v.ufb, &v.gfb, &v.mfb
	sampling := false
	if v.rec != nil {
		v.rec.BeginBatch(now)
		sampling = v.rec.SampleEvery() != 0
	}
	for i := range keys {
		k := keys[i]
		var fl uint8
		if flags != nil {
			fl = flags[i]
		}
		errs[i] = nil
		if parked != nil {
			parked[i] = false
		}
		traced := false
		if sampling {
			if traced = v.rec.Sample(); traced {
				v.traceOpen(k)
			}
		}

		if v.uf != nil {
			if traced {
				v.rec.StageBegin("microflow")
			}
			e, ok := ufb.Lookup(k, now)
			served := ok && (v.ct == nil || v.ctServe(e, &k, fl, now))
			if traced {
				v.rec.StageEnd(served)
			}
			if served {
				ufHits++
				out[i] = ProcessResult{Verdict: e.Verdict, Final: e.Final, CacheHit: true, MicroflowHit: true}
				if traced {
					v.traceHit(telemetry.TierMicroflow, v.uf.LastHash(), &out[i])
				} else if v.rec != nil {
					v.rec.Hit(telemetry.TierMicroflow, v.uf.LastHash())
				}
				continue
			}
			if ok {
				// Stale or transition-capable: drop the memo, take the full path.
				v.uf.Remove(k)
				v.stats.CtGuardFails++
			}
		}

		kt, conn, dir := k, (*conntrack.Conn)(nil), conntrack.DirForward
		tier := telemetry.TierSlowpath
		if v.ct != nil {
			if traced {
				v.rec.StageBegin("conntrack")
			}
			var bits uint64
			bits, conn, dir = v.ct.Track(k, fl, now)
			kt = k.With(flow.FieldCtState, bits)
			if traced {
				v.rec.StageEnd(conn != nil)
			}
		}

		if v.gf != nil {
			if traced {
				v.rec.StageBegin("gigaflow")
			}
			res := gfb.Lookup(kt, now)
			valid := res.Hit && (v.ct == nil || v.ctPathValid(res.Path))
			if traced {
				v.rec.StageEnd(valid)
				for _, e := range res.Path {
					v.rec.StageNote("ltm-table", e.TableIndex(), e.Tag, e.Priority)
				}
			}
			if valid {
				mainHits++
				v.memoizeCt(k, res.Final, res.Verdict, now, conn, dir)
				out[i] = ProcessResult{Verdict: res.Verdict, Final: res.Final, CacheHit: true}
				if traced {
					v.traceHit(telemetry.TierGigaflow, kt.FlowHash(), &out[i])
				} else if v.rec != nil {
					v.rec.Hit(telemetry.TierGigaflow, kt.FlowHash())
				}
				continue
			}
			if res.Hit {
				tier = telemetry.TierConntrack // stale entries revoked: replay
			}
		} else {
			if traced {
				v.rec.StageBegin("megaflow")
			}
			e, ok := mfb.Lookup(kt, now)
			valid := ok && (v.ct == nil || e.CtEpoch == 0 || v.ct.EpochValid(e.CtConn, e.CtEpoch))
			if traced {
				v.rec.StageEnd(valid)
			}
			if valid {
				mainHits++
				final, verdict := e.Apply(kt)
				v.memoizeCt(k, final, verdict, now, conn, dir)
				out[i] = ProcessResult{Verdict: verdict, Final: final, CacheHit: true}
				if traced {
					v.traceHit(telemetry.TierMegaflow, kt.FlowHash(), &out[i])
				} else if v.rec != nil {
					v.rec.Hit(telemetry.TierMegaflow, kt.FlowHash())
				}
				continue
			}
			if ok {
				v.mf.Remove(e)
				v.stats.CtInvalidated++
				tier = telemetry.TierConntrack
			}
		}

		if parked != nil {
			parks++
			parked[i] = true
			out[i] = ProcessResult{}
			if traced {
				v.tracePark(kt.FlowHash())
			}
			continue
		}
		out[i], errs[i] = v.miss(k, kt, conn, dir, tier, now, traced)
	}
	if v.rec != nil {
		v.rec.EndBatch()
	}
	v.stats.Packets += uint64(len(keys)) - parks
	v.stats.MicroflowHits += ufHits
	v.stats.CacheHits += mainHits
	ufb.Flush()
	gfb.Flush()
	mfb.Flush()
}

// miss punts a main-cache miss to the slowpath inline: full pipeline
// traversal, then partition and install. kt is the lookup key with
// ct_state folded in (equal to k when tracking is off), conn/dir the
// packet's tracked connection, tier the latency tier the miss is
// attributed to (TierConntrack when a stale connection-dependent entry
// forced the replay), and traced whether the recorder holds an open trace
// for the packet.
//
//gf:hotpath-safe slowpath traversal and rule install; misses are µs-scale and allocate by design
func (v *VSwitch) miss(k, kt Key, conn *conntrack.Conn, dir conntrack.Dir,
	tier telemetry.Tier, now int64, traced bool) (ProcessResult, error) {
	if v.rec != nil {
		v.rec.ColdBegin() // no-op for a sampled packet, already cold
	}
	flight := telemetry.FlightMiss
	if traced {
		flight |= telemetry.FlightTraced
		v.rec.StageBegin("slowpath")
	}
	v.stats.CacheMisses++
	v.stats.Slowpath++
	if v.slowMu != nil {
		v.slowMu.Lock() // exclude concurrent upcall-engine traversals
	}
	var tr *Traversal
	var err error
	if v.ct != nil {
		res := ctResolver{ct: v.ct, pipe: v.pipe, conn: conn, dir: dir}
		tr, err = v.pipe.ProcessResolve(kt, &res)
	} else {
		tr, err = v.pipe.Process(kt)
	}
	if v.slowMu != nil {
		v.slowMu.Unlock()
	}
	if traced {
		v.rec.StageEnd(err == nil)
	}
	if err != nil {
		err = fmt.Errorf("gigaflow: slowpath: %w", err)
		if traced {
			v.rec.TraceVerdict("", err)
		}
		if v.rec != nil {
			v.rec.Cold(tier, kt.FlowHash(), flight)
		}
		return ProcessResult{}, err
	}
	if traced {
		v.rec.StageBegin("partition+install")
	}
	flight |= v.install(k, tr, now, conn, dir)
	if traced {
		v.rec.StageEnd(flight&telemetry.FlightInstall != 0)
		v.rec.TraceVerdict(tr.Verdict.String(), nil)
	}
	if v.rec != nil {
		v.rec.Cold(tier, kt.FlowHash(), flight)
	}
	return ProcessResult{Verdict: tr.Verdict, Final: tr.FinalKey()}, nil
}

// install compiles a successful traversal of k into the main cache,
// counts the install (or its rejection), and memoizes the flow: the half
// of a miss the inline slow path and CompleteMiss share. It returns the
// flight flags describing the outcome.
func (v *VSwitch) install(k Key, tr *Traversal, now int64, conn *conntrack.Conn, dir conntrack.Dir) uint8 {
	var ok bool
	var evicted uint64
	if v.gf != nil {
		ev0 := v.gf.Stats().EvictLRU
		_, err := v.gf.Insert(tr, now)
		ok, evicted = err == nil, v.gf.Stats().EvictLRU-ev0
	} else {
		ev0 := v.mf.Stats().EvictLRU
		ok = v.mf.Insert(tr, now) != nil
		evicted = v.mf.Stats().EvictLRU - ev0
	}
	flight := telemetry.FlightInstall
	if ok {
		v.stats.Installs++
	} else {
		v.stats.InstallErrs++
		flight = telemetry.FlightInstallErr
	}
	if evicted > 0 {
		flight |= telemetry.FlightEvict
	}
	v.memoizeCt(k, tr.FinalKey(), tr.Verdict, now, conn, dir)
	return flight
}

// traceOpen starts a sampled packet's trace and switches its latency
// record to an exact stamp: a traced packet's latency includes the
// tracing work, so it is recorded FlightTraced and kept out of the tier
// histograms.
//
//gf:hotpath-safe sampled 1-in-N packets only; renders the key and reads the clock by contract
func (v *VSwitch) traceOpen(k Key) {
	v.rec.TraceBegin(k.String())
}

// traceHit finishes a sampled packet's trace on a cache hit, with an
// exactly-timed flight record in place of the run-estimated one.
//
//gf:hotpath-safe sampled 1-in-N packets only; renders the verdict and reads the clock by contract
func (v *VSwitch) traceHit(tier telemetry.Tier, hash uint64, r *ProcessResult) {
	v.rec.TraceVerdict(r.Verdict.String(), nil)
	v.rec.Cold(tier, hash, telemetry.FlightTraced)
}

// tracePark finishes a sampled packet's trace on a parked miss; the
// slow-path stages belong to the engine and the completion.
//
//gf:hotpath-safe sampled 1-in-N packets only; reads the clock by contract
func (v *VSwitch) tracePark(hash uint64) {
	v.rec.StageBegin("park")
	v.rec.StageEnd(true)
	v.rec.Cold(telemetry.TierSlowpath, hash, telemetry.FlightTraced|telemetry.FlightMiss)
}

// Revalidate re-checks every cached entry against the current pipeline
// rules (§4.3.1), evicting stale ones, and drops the Microflow tier
// wholesale (exact entries cannot be rechecked incrementally). Call after
// mutating pipeline rules. Returns main-cache entries evicted and pipeline
// lookups replayed.
func (v *VSwitch) Revalidate() (evicted, work int) {
	if v.uf != nil {
		v.uf.Invalidate()
	}
	if v.gf != nil {
		return v.gf.Revalidate()
	}
	return v.mf.Revalidate(v.pipe)
}

// ExpireIdle evicts entries idle longer than the configured max-idle
// (no-op unless WithMaxIdle was set). Returns the number evicted from the
// main cache.
func (v *VSwitch) ExpireIdle(now int64) int {
	if v.ct != nil && v.ctMaxIdle > 0 {
		// Idle connections die first (epoch-poisoned), so cache entries
		// that depended on them fail validation even before their own
		// idle timers fire.
		v.ct.ExpireIdle(now, v.ctMaxIdle)
	}
	if v.maxIdle <= 0 {
		return 0
	}
	if v.uf != nil {
		v.uf.ExpireIdle(now, v.maxIdle)
	}
	if v.gf != nil {
		return v.gf.ExpireIdle(now, v.maxIdle)
	}
	return v.mf.ExpireIdle(now, v.maxIdle)
}

// CacheEntries reports the number of installed cache entries.
func (v *VSwitch) CacheEntries() int {
	if v.gf != nil {
		return v.gf.Len()
	}
	return v.mf.Len()
}

// Coverage reports the cache's rule-space coverage (Table 2); for the
// Megaflow backend this equals the entry count.
func (v *VSwitch) Coverage() uint64 {
	if v.gf != nil {
		return v.gf.Coverage()
	}
	return uint64(v.mf.Len())
}

// VSwitchTelemetry describes the vSwitch's counters and cache hierarchy
// for the introspection endpoint: end-to-end stats plus a snapshot of
// whichever cache levels are configured.
type VSwitchTelemetry struct {
	Backend   string              `json:"backend"` // "gigaflow" | "megaflow"
	Stats     VSwitchStats        `json:"stats"`
	Coverage  uint64              `json:"coverage"`
	Gigaflow  *gfcache.Snapshot   `json:"gigaflow,omitempty"`
	Megaflow  *megaflow.Snapshot  `json:"megaflow,omitempty"`
	Microflow *microflow.Snapshot `json:"microflow,omitempty"`
	Conntrack *conntrack.Stats    `json:"conntrack,omitempty"`
}

// Telemetry captures the vSwitch's current introspection view. Like every
// VSwitch method it must run on the goroutine driving the switch.
func (v *VSwitch) Telemetry() VSwitchTelemetry {
	t := VSwitchTelemetry{Stats: v.stats, Coverage: v.Coverage()}
	if v.gf != nil {
		t.Backend = "gigaflow"
		s := v.gf.Snapshot()
		t.Gigaflow = &s
	} else {
		t.Backend = "megaflow"
		s := v.mf.Snapshot()
		t.Megaflow = &s
	}
	if v.uf != nil {
		s := v.uf.Snapshot()
		t.Microflow = &s
	}
	if v.ct != nil {
		s := v.ct.Stats()
		t.Conntrack = &s
	}
	return t
}

// CollectMetrics mirrors the vSwitch's counters, occupancy gauges, and
// per-table statistics into reg under the given worker label, using the
// metric names documented in README's Observability section. Registry
// writes are atomic, but cache internals are not safe for concurrent
// readers — call on the goroutine driving the switch (the service does
// this on each worker's own goroutine at scrape time, so the fast path
// carries no metric work at all).
func (v *VSwitch) CollectMetrics(reg *telemetry.Registry, worker string) {
	c := func(name, help string, val uint64) {
		reg.CounterVec(name, help, "worker").With(worker).Set(val)
	}
	g := func(name, help string, val float64) {
		reg.GaugeVec(name, help, "worker").With(worker).Set(val)
	}
	s := v.stats
	c("gigaflow_packets_total", "Packets processed end to end.", s.Packets)
	c("gigaflow_microflow_hits_total", "Exact-match first-level cache hits.", s.MicroflowHits)
	c("gigaflow_cache_hits_total", "Main-cache (Gigaflow/Megaflow) hits.", s.CacheHits)
	c("gigaflow_cache_misses_total", "Main-cache misses (slowpath punts).", s.CacheMisses)
	c("gigaflow_slowpath_traversals_total", "Full pipeline traversals executed.", s.Slowpath)
	c("gigaflow_installs_total", "Traversals compiled and installed into the cache.", s.Installs)
	c("gigaflow_install_errors_total", "Traversals that could not be installed.", s.InstallErrs)
	g("gigaflow_cache_entries", "Installed main-cache entries.", float64(v.CacheEntries()))
	g("gigaflow_cache_coverage", "Rule-space coverage of the installed entries.", float64(v.Coverage()))

	// Cache-churn rates, uniform across backends: inserts and removals by
	// cause, so expiry/eviction behavior under load is visible per tier.
	churn := func(reason string, val uint64) {
		reg.CounterVec("gigaflow_cache_evictions_total",
			"Main-cache entries removed, by cause.",
			"worker", "reason").With(worker, reason).Set(val)
	}

	if v.gf != nil {
		gs := v.gf.Stats()
		c("gigaflow_cache_inserts_total", "Entries created in the main cache.", gs.EntriesCreated)
		churn("lru", gs.EvictLRU)
		churn("expired", gs.Expired)
		churn("revoked", gs.Revoked)
		c("gigaflow_cache_stalls_total", "Misses that matched a partial entry chain.", gs.Stalls)
		c("gigaflow_shared_reuse_total", "Sub-traversal installs deduplicated against resident entries.", gs.SharedReuse)
		c("gigaflow_conflicts_total", "Entries replaced due to same-predicate conflicts.", gs.Conflicts)
		c("gigaflow_tables_probed_total", "LTM table consultations across lookups.", gs.TablesProbed)
		c("gigaflow_tuple_probes_total", "TSS tuple probes across lookups.", gs.TupleProbes)
		c("gigaflow_reval_work_total", "Pipeline table lookups spent revalidating.", gs.RevalWork)
		g("gigaflow_cache_capacity", "Total main-cache entry capacity.", float64(v.gf.Capacity()))
		tc := func(name, help string, table string, val uint64) {
			reg.CounterVec(name, help, "worker", "table").With(worker, table).Set(val)
		}
		tg := func(name, help string, table string, val float64) {
			reg.GaugeVec(name, help, "worker", "table").With(worker, table).Set(val)
		}
		for i := 0; i < v.gf.NumTables(); i++ {
			ts := v.gf.TableSnapshot(i)
			tl := fmt.Sprintf("%d", i)
			tc("gigaflow_table_hits_total", "Entry matches in this LTM table.", tl, ts.Hits)
			tc("gigaflow_table_inserts_total", "Entries created in this LTM table.", tl, ts.Inserts)
			tg("gigaflow_table_occupancy", "Resident entries in this LTM table.", tl, float64(ts.Len))
			tg("gigaflow_table_capacity", "Entry capacity of this LTM table.", tl, float64(ts.Capacity))
			tg("gigaflow_table_tags", "Distinct pipeline-table tags resident in this LTM table.", tl, float64(ts.Tags))
			te := func(reason string, val uint64) {
				reg.CounterVec("gigaflow_table_evictions_total",
					"Entries removed from this LTM table, by cause.",
					"worker", "table", "reason").With(worker, tl, reason).Set(val)
			}
			te("lru", ts.EvictLRU)
			te("expired", ts.Expired)
			te("revoked", ts.Revoked)
		}
	} else {
		ms := v.mf.Snapshot()
		c("gigaflow_cache_inserts_total", "Entries created in the main cache.", ms.Inserts)
		churn("lru", ms.EvictLRU)
		churn("expired", ms.Expired)
		churn("revoked", ms.Revoked)
		c("gigaflow_megaflow_replaced_total", "Entries replaced by an equal-mask reinstall.", ms.Replaced)
		c("gigaflow_megaflow_rejected_total", "Installs rejected by the Megaflow cache.", ms.Rejected)
		g("gigaflow_cache_capacity", "Total main-cache entry capacity.", float64(ms.Capacity))
		g("gigaflow_megaflow_masks", "Distinct TSS tuples in the Megaflow cache.", float64(ms.Masks))
		c("gigaflow_tuple_probes_total", "TSS tuple probes across lookups.", ms.TupleProbes)
		c("gigaflow_reval_work_total", "Pipeline table lookups spent revalidating.", ms.RevalWork)
	}

	if v.uf != nil {
		us := v.uf.Snapshot()
		g("gigaflow_microflow_entries", "Resident exact-match entries.", float64(us.Len))
		g("gigaflow_microflow_capacity", "Exact-match tier entry capacity.", float64(us.Capacity))
		c("gigaflow_microflow_inserts_total", "Exact-match entries memoized.", us.Inserts)
		c("gigaflow_microflow_evictions_total", "Exact-match entries evicted by LRU.", us.EvictLRU)
		c("gigaflow_microflow_expired_total", "Exact-match entries removed by idle expiry.", us.Expired)
		c("gigaflow_microflow_invalidated_total", "Exact-match entries dropped by revalidation.", us.Invalid)
	}

	if v.ct != nil {
		cs := v.ct.Stats()
		c("gigaflow_ct_lookups_total", "Conntrack table probes (tracked protocols).", cs.Lookups)
		c("gigaflow_ct_hits_total", "Conntrack probes that found an existing connection.", cs.Hits)
		c("gigaflow_ct_created_total", "Connections created (including reopens).", cs.Created)
		c("gigaflow_ct_transitions_total", "Connection state transitions.", cs.Transitions)
		c("gigaflow_ct_reopened_total", "Closed connections replaced by a fresh handshake.", cs.Reopened)
		c("gigaflow_ct_expired_total", "Connections removed by idle expiry.", cs.Expired)
		c("gigaflow_ct_evictions_total", "Connections evicted by table pressure.", cs.EvictLRU)
		c("gigaflow_ct_displaced_total", "Connections removed by a tuple-registration clash.", cs.Displaced)
		g("gigaflow_ct_connections", "Live tracked connections.", float64(v.ct.Len()))
		c("gigaflow_ct_fastpath_total", "Microflow hits served under the conntrack epoch guard.", s.CtFastpath)
		c("gigaflow_ct_guard_fails_total", "Microflow entries dropped by the conntrack guard.", s.CtGuardFails)
		c("gigaflow_ct_invalidated_total", "Main-cache entries removed on a stale conntrack epoch.", s.CtInvalidated)
	}

	if v.rec != nil {
		lat := reg.GaugeVec("gigaflow_latency_ns",
			"Per-tier packet latency quantile estimate (ns).", "worker", "tier", "quantile")
		pkts := reg.CounterVec("gigaflow_latency_packets_total",
			"Packets attributed to this latency tier.", "worker", "tier")
		for t := telemetry.Tier(0); t < telemetry.NumTiers; t++ {
			h := v.rec.Histogram(t)
			tl := t.String()
			pkts.With(worker, tl).Set(h.Count())
			if h.Count() == 0 {
				continue
			}
			ls := h.Snapshot()
			lat.With(worker, tl, "0.5").Set(ls.P50)
			lat.With(worker, tl, "0.9").Set(ls.P90)
			lat.With(worker, tl, "0.99").Set(ls.P99)
			lat.With(worker, tl, "0.999").Set(ls.P999)
			lat.With(worker, tl, "max").Set(float64(ls.MaxNs))
		}
		c("gigaflow_flight_records_total", "Flight-recorder records written.", v.rec.Seq())
		c("gigaflow_latency_spikes_total", "Flight-recorder spike captures triggered.", v.rec.Spikes())
	}
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"gigaflow"
	"gigaflow/service"
)

// epoch anchors every nanosecond timestamp the benchmark takes.
var epoch = time.Now()

func nanotime() int64 { return int64(time.Since(epoch)) }

// cpuNanos is the process's user+sys CPU time.
func cpuNanos(ru *syscall.Rusage) int64 {
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// pass is one fresh Service driven through a workload's batches.
type pass struct {
	setupNs  int64 // service.New + Start
	frames   int64 // frames submitted in the measured phase
	busyNs   int64 // time inside SubmitFrameBatch calls, measured phase
	mallocs  uint64
	memBytes int64  // live heap held by the service after the pass
	calls    []call // each measured call

	attempted, failed int64 // every frame of the pass, warm ones included

	delta      gigaflow.VSwitchStats // measured phase
	total      gigaflow.VSwitchStats // whole pass
	warmShards []service.ShardStat   // after the warm phase
	shards     []service.ShardStat   // at the end of the pass
	upcall     service.UpcallStats   // measured-phase delta of the counters used
	cache      int                   // main-cache entries at the end
}

// call is one measured SubmitFrameBatch call.
type call struct {
	ns, cpu int64 // wall and process CPU time inside the call
	frames  int
}

// runPass builds a fresh Service for w, submits the warm batches off the
// clock and the rest in a closed loop — one submitter, one blocking
// batch in flight — timing only the SubmitFrameBatch calls. A non-nil log
// records every call, warm ones included, for the traced run.
func runPass(ctx context.Context, w *workload, log *spanLog) (*pass, error) {
	p := &pass{calls: make([]call, 0, w.batches-w.warm)}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := int64(ms.HeapAlloc)

	t0 := nanotime()
	svc, err := service.New(w.pipe, w.cfg)
	if err != nil {
		return nil, fmt.Errorf("service.New: %w", err)
	}
	if err := svc.Start(ctx); err != nil {
		return nil, fmt.Errorf("service.Start: %w", err)
	}
	p.setupNs = nanotime() - t0
	defer svc.Close()

	b := service.NewBatch(batchSize)
	for i := 0; i < w.warm; i++ {
		fr := w.src.frames(i)
		s := nanotime()
		err := svc.SubmitFrameBatch(ctx, fr, b)
		e := nanotime()
		if err != nil {
			return nil, fmt.Errorf("warm batch %d: %w", i, err)
		}
		if log != nil {
			log.batch(i, fr, s, e)
		}
		p.attempted += int64(len(fr))
		p.failed += int64(w.src.check(i, b))
	}

	st0, err := svc.Stats(ctx)
	if err != nil {
		return nil, err
	}
	if p.warmShards, err = svc.ShardStats(ctx); err != nil {
		return nil, err
	}
	up0, err := svc.UpcallStats(ctx)
	if err != nil {
		return nil, err
	}

	var ru syscall.Rusage
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	for i := w.warm; i < w.batches; i++ {
		fr := w.src.frames(i)
		c0 := cpuNanos(&ru)
		s := nanotime()
		err := svc.SubmitFrameBatch(ctx, fr, b)
		e := nanotime()
		c1 := cpuNanos(&ru)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		p.busyNs += e - s
		p.calls = append(p.calls, call{ns: e - s, cpu: c1 - c0, frames: len(fr)})
		if log != nil {
			log.batch(i, fr, s, e)
		}
		p.frames += int64(len(fr))
		p.attempted += int64(len(fr))
		p.failed += int64(w.src.check(i, b))
	}
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - mallocs0

	if p.total, err = svc.Stats(ctx); err != nil {
		return nil, err
	}
	p.delta = subStats(p.total, st0)
	if p.shards, err = svc.ShardStats(ctx); err != nil {
		return nil, err
	}
	up1, err := svc.UpcallStats(ctx)
	if err != nil {
		return nil, err
	}
	p.upcall = service.UpcallStats{
		Enabled:   up1.Enabled,
		Flows:     up1.Flows - up0.Flows,
		Deduped:   up1.Deduped - up0.Deduped,
		Stale:     up1.Stale - up0.Stale,
		Overflows: up1.Overflows - up0.Overflows,
		Drained:   up1.Drained - up0.Drained,
		Batches:   up1.Batches - up0.Batches,
	}
	p.cache = svc.CacheEntries()

	runtime.GC()
	runtime.ReadMemStats(&ms)
	p.memBytes = int64(ms.HeapAlloc) - heap0
	return p, nil
}

func subStats(a, b gigaflow.VSwitchStats) gigaflow.VSwitchStats {
	return gigaflow.VSwitchStats{
		Packets:       a.Packets - b.Packets,
		MicroflowHits: a.MicroflowHits - b.MicroflowHits,
		CacheHits:     a.CacheHits - b.CacheHits,
		CacheMisses:   a.CacheMisses - b.CacheMisses,
		Slowpath:      a.Slowpath - b.Slowpath,
		Installs:      a.Installs - b.Installs,
		InstallErrs:   a.InstallErrs - b.InstallErrs,
		CtFastpath:    a.CtFastpath - b.CtFastpath,
		CtGuardFails:  a.CtGuardFails - b.CtGuardFails,
		CtInvalidated: a.CtInvalidated - b.CtInvalidated,
	}
}

// counts is the deterministic ledger of one pass: every value must
// repeat exactly across passes and runs of one seed.
func (p *pass) counts(w *workload) []namedCount {
	t := p.total
	out := []namedCount{
		{"packets", t.Packets},
		{"microflow_hits", t.MicroflowHits},
		{"cache_hits", t.CacheHits},
		{"cache_misses", t.CacheMisses},
		{"traversals", t.Slowpath},
		{"installs", t.Installs},
		{"install_errs", t.InstallErrs},
		{"ct_fastpath", t.CtFastpath},
		{"ct_guard_fails", t.CtGuardFails},
		{"ct_invalidated", t.CtInvalidated},
		{"cache_entries", uint64(p.cache)},
	}
	var created, evicted, live uint64
	for i, s := range p.shards {
		out = append(out, namedCount{fmt.Sprintf("shard%d_packets", i), s.Packets})
		created += s.CtCreated
		evicted += s.CtEvicted
		live += uint64(s.CtLive)
	}
	if w.ct {
		out = append(out,
			namedCount{"ct_created", created},
			namedCount{"ct_evicted", evicted},
			namedCount{"ct_live", live})
	}
	if p.upcall.Enabled {
		out = append(out,
			namedCount{"upcall_flows", p.upcall.Flows},
			namedCount{"upcall_deduped", p.upcall.Deduped},
			namedCount{"upcall_stale", p.upcall.Stale})
	}
	return out
}

type namedCount struct {
	name string
	v    uint64
}

// invariants checks a pass's ledger against what the workload submitted;
// each violation is returned as an error.
func (p *pass) invariants(w *workload) []error {
	var errs []error
	if p.total.Packets != uint64(p.attempted) {
		errs = append(errs, fmt.Errorf("service counted %d packets, %d frames were submitted", p.total.Packets, p.attempted))
	}
	if t := p.total; t.MicroflowHits+t.CacheHits+t.CacheMisses != t.Packets {
		errs = append(errs, fmt.Errorf("tier counts %d+%d+%d do not sum to %d packets",
			t.MicroflowHits, t.CacheHits, t.CacheMisses, t.Packets))
	}
	if w.ct {
		var created, evicted, expired, live uint64
		for _, s := range p.shards {
			created += s.CtCreated
			evicted += s.CtEvicted
			expired += s.CtExpired
			live += uint64(s.CtLive)
		}
		if created != uint64(w.queries) {
			errs = append(errs, fmt.Errorf("conntrack created %d connections for %d queries", created, w.queries))
		}
		if created-evicted-expired != live {
			errs = append(errs, fmt.Errorf("conntrack created %d - evicted %d - expired %d != live %d",
				created, evicted, expired, live))
		}
	}
	return errs
}

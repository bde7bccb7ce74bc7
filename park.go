package gigaflow

import (
	"gigaflow/internal/conntrack"
	"gigaflow/internal/telemetry"
)

// Park-mode processing: the VSwitch half of the asynchronous slow-path
// offload (internal/upcall). In park mode a main-cache miss is not
// punted to the pipeline inline — the kernel reports it to the caller,
// who parks the packet and enqueues an upcall; a dedicated engine runs
// the traversal off the datapath goroutine, and the caller finishes the
// miss later through CompleteMiss (fresh traversal) or by replaying the
// packet through Process (failed or stale traversal).
//
// Accounting discipline — the reason async totals match inline exactly:
// a parked packet is counted NOWHERE at park time, not even in
// Stats.Packets. The flow's one traversal is accounted once, by
// CompleteMiss (Packets, CacheMisses, Slowpath, Installs/InstallErrs),
// exactly as the inline miss would have; every other packet that parked
// behind the same pending flow is replayed through Process after the
// install and counts as the cache hit it would have been inline, where
// the first packet's miss installs before later packets of the flow are
// processed.

// ProcessBatchPark is ProcessBatchMeta in park mode: packet i's miss sets
// parked[i] instead of running the slow path, with out[i] zeroed and no
// counters touched for it. out, errs, and parked must all be at least
// len(keys) long; flags may be nil. Hits, memoization, and in-batch
// visibility of earlier packets' microflow entries are identical to
// ProcessBatchMeta.
//
//gf:hotpath
func (v *VSwitch) ProcessBatchPark(keys []Key, flags []uint8, out []ProcessResult, errs []error, parked []bool, now int64) {
	v.process(keys, flags, out, errs, parked, now)
}

// ProcessMissInline finishes a packet that ProcessBatchPark parked but
// that cannot be deferred after all — the upcall queue overflow
// fallback. It performs the inline slow-path punt the packet skipped,
// with full accounting, exactly as if the kernel had never parked it.
// Cold by definition; not part of the certified hot path.
func (v *VSwitch) ProcessMissInline(k Key, now int64) (ProcessResult, error) {
	v.stats.Packets++
	if v.rec != nil {
		v.rec.BeginBatch(now)
	}
	return v.miss(k, k, nil, conntrack.DirForward, telemetry.TierSlowpath, now, false)
}

// CompleteMiss finishes a parked miss whose traversal the upcall engine
// already ran: it installs the traversal's rules, memoizes the flow, and
// counts the packet and its one slow-path traversal — the deferred twin
// of the inline miss, sharing its install half. tr must be a successful
// traversal of k computed against the current pipeline version; the
// caller is responsible for replaying the packet through Process instead
// when the traversal failed or a rule update made it stale
// (Traversal.Version != Pipeline().Version).
//
// Callers must give the packet a second-chance lookup (a one-packet
// ProcessBatchPark) before completing: while this flow waited, another
// flow's completion may have installed a wildcard entry that covers it —
// inline, this packet would have hit that entry, so completing blindly
// would count a miss and an install the inline switch never saw. Only a
// still-missing flow consumes its traversal.
//
// travNs is the traversal span measured on the engine goroutine and
// parkNs the upcall queue wait; the flight record written for the
// completion carries both, flagged FlightDeferred.
//
// Like every VSwitch method it must run on the goroutine driving the
// switch — completions are delivered to the owning worker, never applied
// from the engine.
func (v *VSwitch) CompleteMiss(k Key, tr *Traversal, now, travNs, parkNs int64) (ProcessResult, error) {
	v.stats.Packets++
	v.stats.CacheMisses++
	v.stats.Slowpath++
	if v.rec != nil {
		v.rec.BeginBatch(now)
	}
	flight := telemetry.FlightMiss | v.install(k, tr, now, nil, conntrack.DirForward)
	if v.rec != nil {
		v.rec.Deferred(telemetry.TierSlowpath, k.FlowHash(), flight, travNs, parkNs)
	}
	return ProcessResult{Verdict: tr.Verdict, Final: tr.FinalKey()}, nil
}

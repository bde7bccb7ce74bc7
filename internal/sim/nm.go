package sim

import (
	"gigaflow/internal/flow"
	"gigaflow/internal/megaflow"
	"gigaflow/internal/rmi"
	"gigaflow/internal/tss"
)

// nmIndex models NuevoMatch acceleration of a CPU-resident Megaflow cache
// (Fig. 17's "NM" search algorithm): a learned RQ-RMI snapshot over the
// cache's entries plus a TSS delta for rules inserted since the last
// retrain, exactly NuevoMatch's split between the trained index and its
// remainder updates. The index is consulted for lookup *cost*; functional
// results still come from the cache's authoritative classifier.
type nmIndex struct {
	snapshot     *rmi.Classifier[*megaflow.Entry]
	delta        *tss.Classifier[*megaflow.Entry]
	sinceRebuild int
}

// nmRebuildEvery retrains often enough that the TSS delta stays small —
// NuevoMatch's background training keeps remainder updates to a few
// hundred rules.
const nmRebuildEvery = 96

func newNMIndex() *nmIndex {
	return &nmIndex{snapshot: rmi.Build[*megaflow.Entry](nil, rmi.Config{}), delta: tss.New[*megaflow.Entry]()}
}

// noteInsert records a newly cached entry in the delta, retraining the
// snapshot from the full cache when the delta has grown enough.
func (n *nmIndex) noteInsert(e *megaflow.Entry, cache *megaflow.Cache) {
	n.delta.Insert(&tss.Entry[*megaflow.Entry]{Match: e.Match, Priority: 0, Value: e})
	n.sinceRebuild++
	if n.sinceRebuild >= nmRebuildEvery {
		n.rebuild(cache)
	}
}

// rebuild retrains the snapshot over the cache's current entries.
func (n *nmIndex) rebuild(cache *megaflow.Cache) {
	entries := cache.Entries()
	res := make([]*rmi.Entry[*megaflow.Entry], len(entries))
	for i, e := range entries {
		res[i] = &rmi.Entry[*megaflow.Entry]{Match: e.Match, Priority: 0, Value: e}
	}
	n.snapshot = rmi.Build(res, rmi.Config{})
	n.delta = tss.New[*megaflow.Entry]()
	n.sinceRebuild = 0
}

// lookupCost returns the work NuevoMatch would spend classifying k, split
// into learned-index units (cheap multiply-adds) and the delta's TSS tuple
// probes (full hash probes).
func (n *nmIndex) lookupCost(k flow.Key) (rmiUnits, deltaProbes int64) {
	_, c1 := n.snapshot.Lookup(k)
	_, c2 := n.delta.Lookup(k)
	return int64(c1), int64(c2)
}

// gfNMCostPerTable is the probe-equivalent cost NuevoMatch spends per
// consulted Gigaflow table (2 model evaluations + error-window
// validations). Applying NM to the LTM tables replaces each table's TSS
// scan; a table with fewer live tuples than this is already cheaper with
// TSS, hence the min() at the call site. This models the paper's small
// GF+NM gain (9.8 µs → 9.65 µs).
const gfNMCostPerTable = 12

package microflow

import (
	"testing"

	"gigaflow/internal/flow"
)

func mk(port uint64) flow.Key { return flow.Key{}.With(flow.FieldTpDst, port) }

func TestExactHitAndMiss(t *testing.T) {
	c := New(4)
	final := mk(80).With(flow.FieldEthDst, 0xbb)
	c.Insert(mk(80), final, flow.Verdict{Kind: flow.VerdictOutput, Port: 3}, 0)

	e, ok := c.Lookup(mk(80), 1)
	if !ok || e.Final != final || e.Verdict.Port != 3 {
		t.Fatalf("hit = %v, %v", e, ok)
	}
	if _, ok := c.Lookup(mk(81), 1); ok {
		t.Error("exact cache must miss on any difference")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestInsertOverwrites(t *testing.T) {
	c := New(4)
	c.Insert(mk(80), mk(80), flow.Verdict{Kind: flow.VerdictOutput, Port: 1}, 0)
	c.Insert(mk(80), mk(80), flow.Verdict{Kind: flow.VerdictOutput, Port: 2}, 1)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	e, _ := c.Lookup(mk(80), 2)
	if e.Verdict.Port != 2 {
		t.Error("overwrite not visible")
	}
}

func TestLRU(t *testing.T) {
	c := New(2)
	c.Insert(mk(1), mk(1), flow.Verdict{}, 0)
	c.Insert(mk(2), mk(2), flow.Verdict{}, 1)
	c.Lookup(mk(1), 2)                        // 2 becomes LRU
	c.Insert(mk(3), mk(3), flow.Verdict{}, 3) // evicts 2
	if _, ok := c.Lookup(mk(2), 4); ok {
		t.Error("LRU entry should be gone")
	}
	if _, ok := c.Lookup(mk(1), 4); !ok {
		t.Error("recently used entry should survive")
	}
	if c.Stats().EvictLRU != 1 {
		t.Errorf("EvictLRU = %d", c.Stats().EvictLRU)
	}
}

func TestExpireIdle(t *testing.T) {
	c := New(4)
	c.Insert(mk(1), mk(1), flow.Verdict{}, 0)
	c.Insert(mk(2), mk(2), flow.Verdict{}, 50)
	if n := c.ExpireIdle(100, 60); n != 1 {
		t.Fatalf("expired %d", n)
	}
	if _, ok := c.Lookup(mk(2), 100); !ok {
		t.Error("fresh entry expired")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4)
	c.Insert(mk(1), mk(1), flow.Verdict{}, 0)
	c.Insert(mk(2), mk(2), flow.Verdict{}, 0)
	if n := c.Invalidate(); n != 2 {
		t.Fatalf("invalidated %d", n)
	}
	if c.Len() != 0 {
		t.Error("entries remain after Invalidate")
	}
	// Cache must remain usable.
	c.Insert(mk(3), mk(3), flow.Verdict{}, 1)
	if _, ok := c.Lookup(mk(3), 2); !ok {
		t.Error("cache broken after Invalidate")
	}
}

func TestCapacityChurn(t *testing.T) {
	c := New(8)
	for i := 0; i < 1000; i++ {
		c.Insert(mk(uint64(i)), mk(uint64(i)), flow.Verdict{}, int64(i))
		if c.Len() > 8 {
			t.Fatalf("capacity exceeded: %d", c.Len())
		}
	}
	// The 8 most recent keys must all be present.
	for i := 992; i < 1000; i++ {
		if _, ok := c.Lookup(mk(uint64(i)), 2000); !ok {
			t.Errorf("recent key %d missing", i)
		}
	}
}

// TestInsertAtCapacityZeroAlloc pins the eviction-reuse contract: once
// the tier is full, inserting a new flow recycles the evicted LRU entry
// instead of allocating one, and the recycled entry carries no state from
// its previous flow.
func TestInsertAtCapacityZeroAlloc(t *testing.T) {
	const capacity = 64
	c := New(capacity)
	for i := 0; i < capacity; i++ {
		e := c.Insert(mk(uint64(i)), mk(uint64(i)), flow.Verdict{Kind: flow.VerdictOutput, Port: 1}, 0)
		e.Hits = 7
		e.CtEpoch = 9
	}
	next := uint64(capacity)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Insert(mk(next), mk(next), flow.Verdict{Kind: flow.VerdictOutput, Port: 2}, int64(next))
		next++
	})
	if allocs != 0 {
		t.Fatalf("Insert at capacity allocates %.1f per call, want 0", allocs)
	}
	if c.Len() != capacity {
		t.Fatalf("Len = %d, want %d", c.Len(), capacity)
	}
	e, ok := c.Lookup(mk(next-1), int64(next))
	if !ok {
		t.Fatal("latest insert missing")
	}
	if e.Key != mk(next-1) || e.Verdict.Port != 2 || e.Hits != 1 || e.CtEpoch != 0 || e.Ct != nil {
		t.Fatalf("recycled entry kept stale state: %+v", e)
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) must panic")
		}
	}()
	New(0)
}

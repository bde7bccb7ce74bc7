package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gigaflow"
	wire "gigaflow/internal/packet"
)

// ctOrderPipeline forwards a tracked TCP packet by its connection state:
// established to port 2, new to port 1. A connection's first packet is
// new and the first packet of the opposite direction establishes it, so
// the two verdicts of a SYN / SYN-ACK pair reveal which one the shard
// processed first.
func ctOrderPipeline() *gigaflow.Pipeline {
	p := gigaflow.NewPipeline("ctorder")
	p.AddTable(0, "state", gigaflow.NewFieldSet(gigaflow.FieldEthType, gigaflow.FieldIPProto, gigaflow.FieldCtState))
	p.MustAddRule(0, gigaflow.MustParseMatch(fmt.Sprintf("eth_type=0x0800,ip_proto=6,ct_state=%#x/%#x", gigaflow.CtEst, gigaflow.CtEst)),
		20, []gigaflow.Action{gigaflow.Output(2)}, gigaflow.NoTable)
	p.MustAddRule(0, gigaflow.MustParseMatch(fmt.Sprintf("eth_type=0x0800,ip_proto=6,ct_state=%#x/%#x", gigaflow.CtNew, gigaflow.CtNew)),
		10, []gigaflow.Action{gigaflow.Output(1)}, gigaflow.NoTable)
	p.MustAddRule(0, gigaflow.MustParseMatch("*"), 1, []gigaflow.Action{gigaflow.Drop()}, gigaflow.NoTable)
	return p
}

// tcpKey is one direction of a TCP conversation between client host c
// and a fixed server; reply swaps the endpoints.
func tcpKey(c uint64, reply bool) gigaflow.Key {
	src, dst := 0x0a010000|c, uint64(0x0a090001)
	sp, dp := 1024+c, uint64(80)
	if reply {
		src, dst, sp, dp = dst, src, dp, sp
	}
	var k gigaflow.Key
	return k.With(gigaflow.FieldEthType, wire.EtherTypeIPv4).
		With(gigaflow.FieldIPProto, wire.IPProtoTCP).
		With(gigaflow.FieldIPSrc, src).
		With(gigaflow.FieldIPDst, dst).
		With(gigaflow.FieldTpSrc, sp).
		With(gigaflow.FieldTpDst, dp)
}

// TestCallerRunsKeepsFlowOrder pins both halves of caller-runs
// submission on a shard wedged outside its lock: its worker goroutine is
// stuck streaming a result to a WithResponse channel nobody reads yet, so
// the lock is free and only the queue is stalled. A blocking submission
// made while nothing is in flight must run inline (it could not complete
// otherwise). Once a nonblocking SYN for flow F waits in the queue, a
// blocking SYN-ACK for F from the same goroutine must queue behind it
// instead of overtaking it, and the verdicts must show the SYN processed
// first.
func TestCallerRunsKeepsFlowOrder(t *testing.T) {
	s, err := New(ctOrderPipeline(), Config{
		Workers:   1,
		Cache:     gigaflow.CacheConfig{NumTables: 2, TableCapacity: 256},
		Conntrack: ConntrackConfig{Enable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	w := s.workers[0]

	wedge := make(chan Result) // unbuffered, unread until the end
	if _, err := s.Submit(ctx, tcpKey(1, false), Nonblocking(), WithResponse(wedge), WithTCPFlags(wire.TCPSyn)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); w.inflight.Load() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("worker never ran the wedge job")
		}
		time.Sleep(time.Millisecond)
	}

	idle := make(chan Result, 1)
	go func() {
		r, _ := s.Submit(ctx, tcpKey(2, false), WithTCPFlags(wire.TCPSyn))
		idle <- r
	}()
	select {
	case r := <-idle:
		if r.Err != nil || r.Verdict.Port != 1 {
			t.Fatalf("idle-shard SYN: %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a blocking submission on an idle shard did not run inline")
	}

	syn := make(chan Result, 1)
	if _, err := s.Submit(ctx, tcpKey(3, false), Nonblocking(), WithResponse(syn), WithTCPFlags(wire.TCPSyn)); err != nil {
		t.Fatal(err)
	}
	// Unwedge once the SYN-ACK's job is queued behind the SYN, or once the
	// submission has returned without queueing (the failure below).
	var returned atomic.Bool
	queued := make(chan bool, 1)
	go func() {
		for len(w.in) < 2 && !returned.Load() {
			time.Sleep(time.Millisecond)
		}
		queued <- len(w.in) >= 2
		<-wedge
	}()
	ack, err := s.Submit(ctx, tcpKey(3, true), WithTCPFlags(wire.TCPSyn|wire.TCPAck))
	returned.Store(true)
	if err != nil {
		t.Fatal(err)
	}
	if !<-queued {
		t.Error("the blocking SYN-ACK ran inline past a queued message")
	}
	if r := <-syn; r.Err != nil || r.Verdict.Port != 1 {
		t.Fatalf("flow SYN got %+v, want new (port 1): the SYN-ACK overtook it", r)
	}
	if ack.Verdict.Port != 2 {
		t.Fatalf("flow SYN-ACK got %+v, want established (port 2): it ran before the SYN", ack)
	}
}

// TestCloseDuringInlineBatch closes the service while a blocking batch is
// running inline on its submitter's goroutine. The inline job is stalled
// on the shard's slow-path lock (held by the test, which also wedges the
// upcall engine, so the full depth-1 upcall queue pushes the batch's
// misses onto the inline fallback). Close must not hang: the worker's
// drain waits for the shard lock, the packet the inline batch was running
// finishes with a real verdict, every other request gets a real verdict
// or ErrClosed, and every goroutine the service started exits.
func TestCloseDuringInlineBatch(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := upcallConfig(BackendGigaflow, 1, 1)
	cfg.Upcall.Queue = 1
	cfg.Upcall.Batch = 1
	s, err := New(buildPipeline(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	w := s.workers[0]

	w.slowMu.Lock()
	locked := true
	defer func() {
		if locked {
			w.slowMu.Unlock()
		}
	}()
	// Flow 1 goes to the engine, which blocks on slowMu; flow 2 then
	// fills the depth-1 upcall queue. Both park.
	parked := make(chan Result, 2)
	if _, err := s.Submit(ctx, key(1, 80), Nonblocking(), WithResponse(parked)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); s.eng.Drained() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("engine never picked up the first miss")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(ctx, key(2, 80), Nonblocking(), WithResponse(parked)); err != nil {
		t.Fatal(err)
	}
	// A control op returns only after everything queued before it ran, so
	// the shard is idle afterwards and the next blocking batch runs inline.
	if _, err := s.Stats(ctx); err != nil {
		t.Fatal(err)
	}

	b := NewBatch(2)
	b.Add(key(3, 80))
	b.Add(key(4, 80))
	submitted := make(chan error, 1)
	go func() { submitted <- s.SubmitBatch(ctx, b) }()
	// Flow 3's park overflows the queue; its inline fallback then blocks on
	// slowMu while the submitter holds the shard lock.
	for deadline := time.Now().Add(5 * time.Second); s.upq.Overflows() != 1; {
		if time.Now().After(deadline) {
			t.Fatal("inline batch never reached the overflow fallback")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	time.Sleep(20 * time.Millisecond) // let the drain reach the shard lock
	w.slowMu.Unlock()
	locked = false

	select {
	case err := <-submitted:
		if err != nil {
			t.Fatalf("inline batch: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("inline batch never returned")
	}
	// Flow 3 held the shard when Close began, so it finishes for real.
	// Flow 4 either overflows too (a real verdict) or, if the released
	// engine freed a queue slot first, parks and is swept with ErrClosed.
	if r := b.Result(0); r.Err != nil || r.Verdict.Port != 1 {
		t.Fatalf("inline request 0: %+v, want a real verdict", r)
	}
	if r := b.Result(1); !errors.Is(r.Err, ErrClosed) && (r.Err != nil || r.Verdict.Port != 1) {
		t.Fatalf("inline request 1: %+v, want a real verdict or ErrClosed", r)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung behind the inline batch")
	}
	for i := 0; i < 2; i++ {
		select {
		case r := <-parked:
			if r.Err != nil && !errors.Is(r.Err, ErrClosed) {
				t.Fatalf("parked packet: %+v, want a verdict or ErrClosed", r)
			}
			if r.Err == nil && r.Verdict.Port != 1 {
				t.Fatalf("parked packet verdict %+v", r)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("parked packet %d never answered", i)
		}
	}
	if err := s.SubmitBatch(ctx, b); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after Close: %v, want ErrClosed", err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d after Close, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCallerRunsHammer runs blocking and nonblocking submitters, rule
// updates, stats scrapes and idle-expiry ticks against a 2-shard service
// at once (meant for -race). The packet ledger must balance: the shards
// processed exactly the packets that were accepted.
func TestCallerRunsHammer(t *testing.T) {
	s, err := New(buildPipeline(), Config{
		Workers:           2,
		QueueDepth:        16,
		Cache:             gigaflow.CacheConfig{NumTables: 3, TableCapacity: 3 * 256},
		MicroflowCapacity: 64,
		Expiry:            ExpiryConfig{Every: time.Millisecond, MaxIdle: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.Start(ctx); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })

	const (
		submitters = 4
		rounds     = 200
	)
	var (
		mu       sync.Mutex
		accepted uint64
		wg       sync.WaitGroup
	)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			b := NewBatch(DefaultBatchSize)
			resp := make(chan Result, DefaultBatchSize)
			var n uint64
			for r := 0; r < rounds; r++ {
				b.Reset()
				size := 1 + rng.Intn(DefaultBatchSize)
				for i := 0; i < size; i++ {
					b.Add(key(uint64(rng.Intn(512)), 80))
				}
				if g%2 == 0 {
					if err := s.SubmitBatch(ctx, b); err != nil {
						t.Error(err)
						return
					}
					for i := 0; i < size; i++ {
						if res := b.Result(i); res.Err != nil || res.Verdict.Port != 1 {
							t.Errorf("submitter %d request %d: %+v", g, i, res)
							return
						}
					}
					n += uint64(size)
					continue
				}
				if err := s.SubmitBatch(ctx, b, Nonblocking(), WithResponse(resp)); err != nil {
					t.Error(err)
					return
				}
				queued := 0
				for i := 0; i < size; i++ {
					if b.Result(i).Err == nil {
						queued++
					}
				}
				for i := 0; i < queued; i++ {
					if res := <-resp; res.Err != nil || res.Verdict.Port != 1 {
						t.Errorf("submitter %d streamed %+v", g, res)
						return
					}
				}
				n += uint64(queued)
			}
			mu.Lock()
			accepted += n
			mu.Unlock()
		}(g)
	}
	stop := make(chan struct{})
	var ctl sync.WaitGroup
	ctl.Add(2)
	go func() { // rule churn: rules for ports the traffic never uses
		defer ctl.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m := gigaflow.MustParseMatch(fmt.Sprintf("tp_dst=%d", 1000+i))
			if err := s.UpdateRules(ctx, func(p *gigaflow.Pipeline) error {
				_, err := p.AddRule(2, m, 20, []gigaflow.Action{gigaflow.Drop()}, gigaflow.NoTable)
				return err
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // stats scrapes
		defer ctl.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.Stats(ctx); err != nil {
				t.Error(err)
				return
			}
			if _, err := s.ShardStats(ctx); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	ctl.Wait()

	st, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets != accepted {
		t.Fatalf("VSwitchStats.Packets = %d, want %d accepted", st.Packets, accepted)
	}
}

package gigaflow

import (
	"testing"

	"gigaflow/internal/packet"
	"gigaflow/internal/telemetry"
)

// tracedTwins builds two identical switches, one whose latency recorder
// samples every packet for a trace and one untraced, both with a latency
// recorder so the traced packets' exact-stamp records are exercised too.
func tracedTwins(pipe func() *Pipeline, opts ...VSwitchOption) (traced, plain *VSwitch, tr *telemetry.LatencyRecorder) {
	cfg := CacheConfig{NumTables: 4, TableCapacity: 1024}
	tr = telemetry.NewLatencyRecorder(0, 0, 1)
	traced = NewVSwitch(pipe(), cfg, append(opts[:len(opts):len(opts)],
		WithLatencyRecorder(tr))...)
	plain = NewVSwitch(pipe(), cfg, append(opts[:len(opts):len(opts)],
		WithLatencyRecorder(telemetry.NewLatencyRecorder(0, 0, 0)))...)
	return traced, plain, tr
}

// requireSameSwitch compares everything tracing must not change: the
// VSwitch counters and every cache tier's and the conntrack table's own
// counters.
func requireSameSwitch(t *testing.T, traced, plain *VSwitch) {
	t.Helper()
	if a, b := traced.Stats(), plain.Stats(); a != b {
		t.Fatalf("VSwitchStats diverge:\n  traced %+v\n  plain  %+v", a, b)
	}
	if traced.Microflow() != nil {
		if a, b := traced.Microflow().Stats(), plain.Microflow().Stats(); a != b {
			t.Fatalf("microflow stats diverge: traced %+v, plain %+v", a, b)
		}
	}
	if traced.Cache() != nil {
		if a, b := traced.Cache().Stats(), plain.Cache().Stats(); a != b {
			t.Fatalf("gigaflow stats diverge: traced %+v, plain %+v", a, b)
		}
	} else if a, b := traced.Megaflow().Stats(), plain.Megaflow().Stats(); a != b {
		t.Fatalf("megaflow stats diverge: traced %+v, plain %+v", a, b)
	}
	if traced.Conntrack() != nil {
		if a, b := traced.Conntrack().Stats(), plain.Conntrack().Stats(); a != b {
			t.Fatalf("conntrack stats diverge: traced %+v, plain %+v", a, b)
		}
	}
}

func requireSameResults(t *testing.T, at int, got, want []ProcessResult, gerrs, werrs []error) {
	t.Helper()
	for i := range want {
		if (gerrs[i] == nil) != (werrs[i] == nil) {
			t.Fatalf("packet %d: traced err %v, plain err %v", at+i, gerrs[i], werrs[i])
		}
		if got[i] != want[i] {
			t.Fatalf("packet %d: traced %+v != plain %+v", at+i, got[i], want[i])
		}
	}
}

// TestTracingChangesNothing drives one key/flag sequence through a
// VSwitch that traces every packet and through an untraced twin. The
// tracer only observes: verdicts, final keys, errors, VSwitchStats and
// the tiers' own counters must be identical, and every packet must
// finish exactly one trace. The inline half runs conntrack + NAT +
// microflow (handshakes, data, replies through ct_nat, closes, idle
// expiry) on both backends, mixing one-packet and batched calls; the park
// half runs the upcall protocol — ProcessBatchPark, second-chance
// lookup, CompleteMiss, follower replay — on both backends.
func TestTracingChangesNothing(t *testing.T) {
	for _, backend := range []string{"gigaflow", "megaflow"} {
		var backendOpts []VSwitchOption
		if backend == "megaflow" {
			backendOpts = append(backendOpts, WithMegaflowBackend(4096))
		}
		t.Run(backend+"/conntrack", func(t *testing.T) {
			const clients, packets, maxIdle = 24, 4000, 400_000
			traced, plain, tr := tracedTwins(statefulPipeline, append(backendOpts,
				WithMicroflow(4*clients), WithConntrack(0), WithConntrackMaxIdle(maxIdle))...)

			rng := xorshift(0x2545f4914f6cdd1d)
			now := int64(0)
			var keys []Key
			var flags []uint8
			sent := 0
			for sent < packets {
				now += int64(rng.next()%40_000) + 1
				if rng.next()%8 == 0 {
					traced.ExpireIdle(now)
					plain.ExpireIdle(now)
				}
				keys, flags = keys[:0], flags[:0]
				for n := 1 + int(rng.next()%8); n > 0; n-- {
					client := int(rng.next() % clients)
					proto := uint64(packet.IPProtoTCP)
					if client%4 == 0 {
						proto = packet.IPProtoUDP
					}
					fwd := ctKey(client, proto)
					k, fl := fwd, uint8(packet.TCPAck)
					switch roll := rng.next() % 10; {
					case roll < 2:
						fl = packet.TCPSyn
					case roll < 6:
						if rk, ok := replyKeyFor(plain.Conntrack(), fwd); ok {
							k = rk
						} else {
							k = invertTuple(fwd)
						}
					case roll < 7:
						fl = packet.TCPFin | packet.TCPAck
					}
					if proto == packet.IPProtoUDP {
						fl = 0
					}
					keys, flags = append(keys, k), append(flags, fl)
				}

				got := make([]ProcessResult, len(keys))
				want := make([]ProcessResult, len(keys))
				gerrs := make([]error, len(keys))
				werrs := make([]error, len(keys))
				if len(keys) == 1 {
					got[0], gerrs[0] = traced.ProcessMeta(keys[0], flags[0], now)
					want[0], werrs[0] = plain.ProcessMeta(keys[0], flags[0], now)
				} else {
					traced.ProcessBatchMeta(keys, flags, got, gerrs, now)
					plain.ProcessBatchMeta(keys, flags, want, werrs, now)
				}
				requireSameResults(t, sent, got, want, gerrs, werrs)
				sent += len(keys)
				requireSameSwitch(t, traced, plain)
			}
			st := plain.Stats()
			if st.MicroflowHits == 0 || st.CacheHits == 0 || st.CacheMisses == 0 ||
				st.CtFastpath == 0 || st.CtGuardFails == 0 {
				t.Errorf("trace left a path unexercised: %+v", st)
			}
			if got := tr.Sampled(); got != uint64(sent) {
				t.Errorf("tracer finished %d traces, want one per packet (%d)", got, sent)
			}
		})

		t.Run(backend+"/park", func(t *testing.T) {
			traced, plain, tr := tracedTwins(buildDemoPipeline, append(backendOpts, WithMicroflow(64))...)
			ports := []uint64{80, 22, 443}
			rng := xorshift(0x9e3779b97f4a7c15)
			kernelPackets := uint64(0)
			for round := 0; round < 60; round++ {
				keys := make([]Key, 1+int(rng.next()%12))
				for i := range keys {
					keys[i] = demoKey(rng.next()%48, ports[rng.next()%3])
				}
				now := int64(round)
				got, gerrs, gn := runParkProtocol(t, traced, keys, now)
				want, werrs, _ := runParkProtocol(t, plain, keys, now)
				requireSameResults(t, round, got, want, gerrs, werrs)
				requireSameSwitch(t, traced, plain)
				kernelPackets += gn
			}
			if st := plain.Stats(); st.CacheMisses == 0 || st.MicroflowHits == 0 {
				t.Errorf("park trace left a path unexercised: %+v", st)
			}
			if got := tr.Sampled(); got != kernelPackets {
				t.Errorf("tracer finished %d traces, want one per kernel packet (%d)", got, kernelPackets)
			}
		})
	}
}

// runParkProtocol runs keys through the park-mode kernel and completes
// every parked flow the way the service's upcall path does: one traversal
// per flow in first-seen order, a second-chance one-packet lookup,
// CompleteMiss if the flow still misses, and follower replay through
// Process. It returns the per-packet results and how many packets went
// through the kernel (each is one trace when every packet is sampled).
func runParkProtocol(t *testing.T, v *VSwitch, keys []Key, now int64) ([]ProcessResult, []error, uint64) {
	t.Helper()
	out := make([]ProcessResult, len(keys))
	errs := make([]error, len(keys))
	parked := make([]bool, len(keys))
	v.ProcessBatchPark(keys, nil, out, errs, parked, now)
	kernel := uint64(len(keys))

	groups := map[Key][]int{}
	var order []Key
	for i, p := range parked {
		if !p {
			continue
		}
		if _, seen := groups[keys[i]]; !seen {
			order = append(order, keys[i])
		}
		groups[keys[i]] = append(groups[keys[i]], i)
	}
	for _, k := range order {
		idxs := groups[k]
		trav, err := v.Pipeline().Process(k)
		if err != nil {
			t.Fatal(err)
		}
		r, still, err := processPark(v, k, now)
		kernel++
		if still {
			r, err = v.CompleteMiss(k, trav, now, 100, 50)
		}
		out[idxs[0]], errs[idxs[0]] = r, err
		for _, i := range idxs[1:] {
			out[i], errs[i] = v.Process(k, now)
			kernel++
		}
	}
	return out, errs, kernel
}

// TestTraceIsFlightRecord checks that a sampled packet is one event, not
// two: every retained trace is the stage-annotated view of a FlightTraced
// record in the same recorder's ring, with the same sequence number, the
// record's latency as its total, the record's timestamp as its end, and
// hit flags that agree with the record's tier and with the packet's
// ProcessResult. It drives microflow hits, main-cache hits, inline misses
// and parked misses through a switch sampling every packet, on both
// backends.
func TestTraceIsFlightRecord(t *testing.T) {
	for _, backend := range []string{"gigaflow", "megaflow"} {
		t.Run(backend, func(t *testing.T) {
			opts := []VSwitchOption{WithMicroflow(4)}
			mainTier := telemetry.TierGigaflow
			if backend == "megaflow" {
				opts = append(opts, WithMegaflowBackend(4096))
				mainTier = telemetry.TierMegaflow
			}
			rec := telemetry.NewLatencyRecorder(4096, 0, 1)
			v := NewVSwitch(buildDemoPipeline(), CacheConfig{NumTables: 4, TableCapacity: 1024},
				append(opts, WithLatencyRecorder(rec))...)

			type want struct {
				res    ProcessResult
				parked bool
			}
			var sent []want

			// A parked miss and its second-chance lookup, both traced;
			// the completion's Deferred record is not.
			k := demoKey(1, 22)
			for i := 0; i < 2; i++ {
				_, parked, err := processPark(v, k, 0)
				if err != nil || !parked {
					t.Fatalf("cold key did not park (err %v)", err)
				}
				sent = append(sent, want{parked: true})
			}
			trav, err := v.Pipeline().Process(k)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v.CompleteMiss(k, trav, 0, 100, 50); err != nil {
				t.Fatal(err)
			}
			// Inline traffic: 16 flows through a 4-entry microflow tier,
			// each packet sent twice, so the second of a pair is a
			// microflow hit and the first a main-cache hit or a miss.
			for round := int64(1); round <= 3; round++ {
				for src := uint64(0); src < 16; src++ {
					port := []uint64{80, 443}[src%2]
					for i := 0; i < 2; i++ {
						r, err := v.Process(demoKey(src, port), round)
						if err != nil {
							t.Fatal(err)
						}
						sent = append(sent, want{res: r})
					}
				}
			}

			traces := rec.Traces(0)
			if len(traces) != len(sent) || rec.Sampled() != uint64(len(sent)) {
				t.Fatalf("%d traces retained, %d sampled; want one per kernel packet (%d)",
					len(traces), rec.Sampled(), len(sent))
			}
			records := rec.Recent(0) // newest first: records[i] has sequence number Seq()-i
			tiers := map[telemetry.Tier]int{}
			parks := 0
			for j, tr := range traces {
				w := sent[len(sent)-1-j] // traces are newest first
				i := rec.Seq() - tr.Seq
				if i >= uint64(len(records)) {
					t.Fatalf("trace seq %d: record no longer resident", tr.Seq)
				}
				fr := records[i]
				if fr.Flags&telemetry.FlightTraced == 0 {
					t.Fatalf("trace seq %d: record %+v is not FlightTraced", tr.Seq, fr)
				}
				if tr.TotalNs != int64(fr.LatNs) || tr.StartUnixNs != fr.TS-int64(fr.LatNs) {
					t.Errorf("trace seq %d: total %d start %d, record lat %d ts %d",
						tr.Seq, tr.TotalNs, tr.StartUnixNs, fr.LatNs, fr.TS)
				}
				if tr.CacheHit != (fr.Tier < telemetry.TierSlowpath) || tr.MicroflowHit != (fr.Tier == telemetry.TierMicroflow) {
					t.Errorf("trace seq %d: cache_hit=%v microflow_hit=%v, record tier %v",
						tr.Seq, tr.CacheHit, tr.MicroflowHit, fr.Tier)
				}
				if tr.CacheHit != w.res.CacheHit || tr.MicroflowHit != w.res.MicroflowHit {
					t.Errorf("trace seq %d: cache_hit=%v microflow_hit=%v, packet result %+v",
						tr.Seq, tr.CacheHit, tr.MicroflowHit, w.res)
				}
				if w.parked {
					parks++
					if last := tr.Stages[len(tr.Stages)-1]; last.Name != "park" ||
						fr.Tier != telemetry.TierSlowpath || fr.Flags&telemetry.FlightMiss == 0 {
						t.Errorf("parked trace seq %d: last stage %+v, record %+v", tr.Seq, last, fr)
					}
				} else if tr.Verdict != w.res.Verdict.String() {
					t.Errorf("trace seq %d: verdict %q, packet verdict %q", tr.Seq, tr.Verdict, w.res.Verdict)
				}
				tiers[fr.Tier]++
			}
			if parks != 2 || tiers[telemetry.TierMicroflow] == 0 || tiers[mainTier] == 0 || tiers[telemetry.TierSlowpath] <= parks {
				t.Errorf("tiers traced %v with %d parks: want microflow, %v, inline slowpath and 2 parks", tiers, parks, mainTier)
			}
		})
	}
}

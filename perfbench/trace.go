package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gigaflow"
	"gigaflow/internal/conntrack"
	wire "gigaflow/internal/packet"
	"gigaflow/service"
)

// Span names. Every span's parent is the root span of its batch: the
// SubmitFrameBatch call that carried the frames. The child spans come
// from replaying those frames, in submission order, through each layer's
// public call on instances configured as the service's single worker.
const (
	spanSubmit    = iota // service.SubmitFrameBatch (root)
	spanRSS              // packet.RSSTuple + shard hash, every frame
	spanDecode           // packet.Decode, every frame
	spanBatch            // VSwitch.ProcessBatchMeta
	spanMicroflow        // VSwitch.ProcessMeta calls the microflow tier answered
	spanMainCache        // ... the main cache answered
	spanSlowpath         // ... that missed every cache
	spanTrack            // conntrack.Table.Track on a standalone table
	spanTraverse         // Pipeline.Process of each miss key
	spanInsert           // gigaflow Cache.Insert of each miss traversal
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"service.submit_frame_batch", "packet.rss", "packet.decode", "vswitch.batch",
	"vswitch.microflow_hit", "vswitch.maincache_hit", "vswitch.slowpath",
	"conntrack.track", "pipeline.traversal", "gigaflow.insert",
}

// span covers n calls of one layer for one batch. busy is the time
// inside the calls themselves; start and end bound them.
type span struct {
	name       uint8
	parent     int32 // index of the root span, -1 for a root
	batch      int32
	n          int32
	start, end int64
	busy       int64
}

// spanLog records one traced pass: its root spans and a copy of every
// frame it submitted, for the replay.
type spanLog struct {
	spans  []span
	root   []int32 // batch index → its root span
	frames []service.Frame
	bounds []int32 // frames of batch i: frames[bounds[i]:bounds[i+1]]
	arena  []byte
}

// batch records call i of the pass; calls arrive in order.
func (l *spanLog) batch(i int, fr []service.Frame, start, end int64) {
	l.root = append(l.root, int32(len(l.spans)))
	l.spans = append(l.spans, span{name: spanSubmit, parent: -1, batch: int32(i), n: int32(len(fr)),
		start: start, end: end, busy: end - start})
	if len(l.bounds) == 0 {
		l.bounds = append(l.bounds, 0)
	}
	for _, f := range fr {
		off := len(l.arena)
		l.arena = append(l.arena, f.Data...)
		l.frames = append(l.frames, service.Frame{InPort: f.InPort, Data: l.arena[off:len(l.arena):len(l.arena)]})
	}
	l.bounds = append(l.bounds, int32(len(l.frames)))
}

// child appends a layer span under batch i's root.
func (l *spanLog) child(name uint8, i int, n int, start, end, busy int64) {
	if n == 0 {
		return
	}
	l.spans = append(l.spans, span{name: name, parent: l.root[i], batch: int32(i), n: int32(n),
		start: start, end: end, busy: busy})
}

// write saves the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range l.spans {
		fmt.Fprintf(bw, `{"name":%q,"batch":%d,"parent":%d,"calls":%d,"start_ns":%d,"end_ns":%d,"busy_ns":%d}`+"\n",
			spanNames[s.name], s.batch, s.parent, s.n, s.start, s.end, s.busy)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTotals sums busy time and calls per span name.
func (l *spanLog) layerTotals() (busy [numSpanNames]int64, calls [numSpanNames]int64) {
	for _, s := range l.spans {
		busy[s.name] += s.busy
		calls[s.name] += int64(s.n)
	}
	return
}

// worker0 builds fresh instances of every layer configured as the
// service's single worker: its pipeline replica, cache shape, microflow
// capacity and conntrack budget, with the service's defaults applied.
type worker0 struct {
	cfg   gigaflow.CacheConfig
	opts  []gigaflow.VSwitchOption
	ct    int // conntrack budget (0: conntrack off)
	clone func() (*gigaflow.Pipeline, error)
}

func newWorker0(w *workload) (*worker0, error) {
	if w.cfg.Workers > 1 {
		return nil, fmt.Errorf("the traced replay models one shard, %s runs %d", w.name, w.cfg.Workers)
	}
	var program strings.Builder
	if err := gigaflow.DumpPipeline(&program, w.pipe); err != nil {
		return nil, err
	}
	text := program.String()
	w0 := &worker0{cfg: w.cfg.Cache, clone: func() (*gigaflow.Pipeline, error) {
		p, err := gigaflow.LoadPipelineString(text)
		if err != nil {
			return nil, err
		}
		p.SetStart(w.pipe.Start)
		return p, nil
	}}
	if w0.cfg.NumTables == 0 {
		w0.cfg.NumTables = 4
	}
	if w0.cfg.TableCapacity == 0 {
		w0.cfg.TableCapacity = 8192
	}
	if w.cfg.MicroflowCapacity > 0 {
		w0.opts = append(w0.opts, gigaflow.WithMicroflow(w.cfg.MicroflowCapacity))
	}
	if w.cfg.Conntrack.Enable {
		w0.ct = w.cfg.Conntrack.MaxConns
		w0.opts = append(w0.opts, gigaflow.WithConntrack(w0.ct))
	}
	return w0, nil
}

func (w0 *worker0) vswitch() (*gigaflow.VSwitch, error) {
	p, err := w0.clone()
	if err != nil {
		return nil, err
	}
	return gigaflow.NewVSwitch(p, w0.cfg, w0.opts...), nil
}

// replay is the outcome of replaying a traced pass through the layers.
type replay struct {
	frames        int64
	fallback      int64  // frames RSSTuple rejected
	hashSink      uint64 // keeps the shard hash from being optimized away
	perPkt, batch gigaflow.VSwitchStats
	ct            *gigaflow.ConntrackTable
	errs          []error
}

// replayLayers replays log's frames, in submission order, through each
// layer and records one child span per layer per batch. Each layer gets
// its own sweep over the whole pass, so only its instance is hot in the
// CPU caches while it is timed, as in the service; frames are decoded
// again, off the clock, in every sweep.
func replayLayers(w *workload, log *spanLog) (*replay, error) {
	w0, err := newWorker0(w)
	if err != nil {
		return nil, err
	}
	perPkt, err := w0.vswitch()
	if err != nil {
		return nil, err
	}
	batchVS, err := w0.vswitch()
	if err != nil {
		return nil, err
	}
	probePipe, err := w0.clone()
	if err != nil {
		return nil, err
	}
	probeCache := gigaflow.NewCache(probePipe, w0.cfg)
	ctBudget := w0.ct
	if ctBudget == 0 {
		ctBudget = 65536 // the service's default budget when conntrack is on
	}
	probeCT := conntrack.NewTable(ctBudget)

	r := &replay{ct: perPkt.Conntrack()}
	nb := len(log.bounds) - 1
	keys := make([]gigaflow.Key, batchSize)
	flags := make([]uint8, batchSize)
	decode := func(bi int) (lo int, fr []service.Frame) {
		lo = int(log.bounds[bi])
		fr = log.frames[lo:log.bounds[bi+1]]
		keys, flags = keys[:len(fr)], flags[:len(fr)]
		for j, f := range fr {
			k, info := wire.Decode(f.Data, f.InPort)
			keys[j], flags[j] = k, info.TCPFlags
		}
		return lo, fr
	}

	// The packet layer. The service extracts the RSS tuple and hashes it
	// to pick a shard; with one shard every frame lands on one worker.
	for bi := 0; bi < nb; bi++ {
		fr := log.frames[log.bounds[bi]:log.bounds[bi+1]]
		r.frames += int64(len(fr))
		s := nanotime()
		for _, f := range fr {
			if t, ok := wire.RSSTuple(f.Data); ok {
				r.hashSink += t.SymHash()
			} else {
				r.fallback++
			}
		}
		e := nanotime()
		log.child(spanRSS, bi, len(fr), s, e, e-s)
		s = nanotime()
		decode(bi)
		e = nanotime()
		log.child(spanDecode, bi, len(fr), s, e, e-s)
	}

	out := make([]gigaflow.ProcessResult, batchSize)
	errs := make([]error, batchSize)
	for bi := 0; bi < nb; bi++ {
		decode(bi)
		now := time.Now().UnixNano()
		s := nanotime()
		batchVS.ProcessBatchMeta(keys, flags, out, errs, now)
		e := nanotime()
		log.child(spanBatch, bi, len(keys), s, e, e-s)
	}

	// Per-packet calls, classed by which tier answered. misses holds the
	// pass-wide index of every frame that took the slow path.
	var misses []int32
	for bi := 0; bi < nb; bi++ {
		lo, _ := decode(bi)
		now := time.Now().UnixNano()
		var ns, first, last [3]int64
		var n [3]int
		for j, k := range keys {
			before := perPkt.Stats()
			s := nanotime()
			_, err := perPkt.ProcessMeta(k, flags[j], now)
			e := nanotime()
			after := perPkt.Stats()
			if err != nil {
				r.errs = append(r.errs, fmt.Errorf("replay batch %d packet %d: %w", bi, j, err))
			}
			c := 2
			switch {
			case after.MicroflowHits > before.MicroflowHits:
				c = 0
			case after.CacheHits > before.CacheHits:
				c = 1
			default:
				misses = append(misses, int32(lo+j))
			}
			if n[c] == 0 {
				first[c] = s
			}
			last[c] = e
			ns[c] += e - s
			n[c]++
		}
		for c := 0; c < 3; c++ {
			log.child(uint8(spanMicroflow+c), bi, n[c], first[c], last[c], ns[c])
		}
	}

	// Layer probes on standalone instances. A miss key is traversed with
	// the ct_state bits the probe table assigns it, as the datapath folds
	// them in before its traversal.
	folded := make([]gigaflow.Key, batchSize)
	travs := make([]*gigaflow.Traversal, 0, batchSize)
	m := 0
	for bi := 0; bi < nb; bi++ {
		lo, fr := decode(bi)
		now := time.Now().UnixNano()
		s := nanotime()
		for j, k := range keys {
			bits, _, _ := probeCT.Track(k, flags[j], now)
			folded[j] = k
			if w0.ct > 0 {
				folded[j] = k.With(gigaflow.FieldCtState, bits)
			}
		}
		e := nanotime()
		log.child(spanTrack, bi, len(keys), s, e, e-s)

		m0 := m
		travs = travs[:0]
		s = nanotime()
		for ; m < len(misses) && int(misses[m]) < lo+len(fr); m++ {
			tr, err := probePipe.Process(folded[int(misses[m])-lo])
			if err != nil {
				r.errs = append(r.errs, fmt.Errorf("replay batch %d: traversal: %w", bi, err))
				continue
			}
			travs = append(travs, tr)
		}
		e = nanotime()
		log.child(spanTraverse, bi, m-m0, s, e, e-s)

		s = nanotime()
		for _, tr := range travs {
			_, _ = probeCache.Insert(tr, now) // a failed install is counted by the datapath, not here
		}
		e = nanotime()
		log.child(spanInsert, bi, len(travs), s, e, e-s)
	}
	r.perPkt, r.batch = perPkt.Stats(), batchVS.Stats()
	return r, nil
}

// tracedRun alternates untraced and traced passes for the time budget,
// then replays the first traced pass through the layers and reports the
// per-layer metrics. The end-to-end metrics are not reported here.
func tracedRun(ctx context.Context, w *workload, o options, rep *report, out io.Writer) (*measured, error) {
	budget := time.Duration(o.seconds) * time.Second
	plain := &measured{w: w}
	traced := &measured{w: w}
	var first *spanLog
	start := time.Now()
	for len(plain.passes) < 2 || time.Since(start) < budget {
		p, err := runPass(ctx, w, nil)
		if err != nil {
			return nil, err
		}
		plain.add(p)

		log := &spanLog{}
		if p, err = runPass(ctx, w, log); err != nil {
			return nil, err
		}
		traced.add(p)
		if first == nil {
			first = log
		}
	}
	rp, err := replayLayers(w, first)
	if err != nil {
		return nil, err
	}
	tp := traced.passes[0]
	plain.errs = append(plain.errs, traced.errs...)
	plain.errs = append(plain.errs, rp.errs...)
	plain.errs = append(plain.errs, parity(tp, rp)...)
	plain.attempted += traced.attempted
	plain.failed += traced.failed

	plain.counters(rep)
	busy, calls := first.layerTotals()
	per := func(name uint8) float64 {
		if calls[name] == 0 {
			return 0
		}
		return float64(busy[name]) / float64(calls[name])
	}
	frames := float64(rp.frames)
	e2e := float64(busy[spanSubmit]) / frames
	rss := float64(busy[spanRSS]) / frames
	dec := float64(busy[spanDecode]) / frames
	bat := per(spanBatch)
	rep.add("service.self_ns_per_pkt", e2e-rss-dec-bat, "ns", "lower",
		fmt.Sprintf("e2e %.1f - rss %.1f - decode %.1f - vswitch %.1f", e2e, rss, dec, bat))
	rep.add("packet.rss_ns", rss, "ns", "lower", fmt.Sprintf("%d frames", rp.frames))
	rep.add("packet.decode_ns", dec, "ns", "lower", "")
	rep.add("packet.rss_fallback_ratio", float64(rp.fallback)/frames, "ratio", "lower", "")
	rep.add("vswitch.batch_ns_per_pkt", bat, "ns", "lower", "")
	classTotal := float64(busy[spanMicroflow] + busy[spanMainCache] + busy[spanSlowpath])
	for c, name := range []string{"microflow_hit", "maincache_hit", "slowpath"} {
		sp := uint8(spanMicroflow + c)
		note := fmt.Sprintf("%d packets", calls[sp])
		if calls[sp] == 0 {
			note = "no packets in this class"
		}
		rep.add("vswitch."+name+"_ns", per(sp), "ns", "lower", note)
	}
	for c, name := range []string{"microflow", "maincache", "slowpath"} {
		rep.add("vswitch."+name+"_time_share", float64(busy[spanMicroflow+c])/classTotal, "ratio", "", "")
	}
	rep.add("gigaflow.insert_ns", per(spanInsert), "ns", "lower", fmt.Sprintf("%d inserts", calls[spanInsert]))
	rep.add("pipeline.traversal_ns", per(spanTraverse), "ns", "lower", fmt.Sprintf("%d traversals", calls[spanTraverse]))
	rep.add("conntrack.track_ns", per(spanTrack), "ns", "lower", fmt.Sprintf("%d keys", calls[spanTrack]))
	rep.add("trace.overhead_ratio", traced.throughput()/plain.throughput(), "ratio", "",
		fmt.Sprintf("traced %.4f / untraced %.4f Mpps", traced.throughput(), plain.throughput()))

	if o.spans != "" {
		if err := os.MkdirAll(o.spans, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(o.spans, w.name+".jsonl")
		if err := first.write(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "# spans %d written to %s\n", len(first.spans), path)
	}
	return plain, nil
}

// parity checks that the replay did the same work the service did: the
// replicas' counters, and their conntrack table's, equal the service's
// exactly.
func parity(tp *pass, rp *replay) []error {
	var errs []error
	if rp.perPkt != tp.total {
		errs = append(errs, fmt.Errorf("parity: per-packet replica stats %+v != service %+v", rp.perPkt, tp.total))
	}
	if rp.batch != tp.total {
		errs = append(errs, fmt.Errorf("parity: batch replica stats %+v != service %+v", rp.batch, tp.total))
	}
	if rp.ct != nil {
		st, s0 := rp.ct.Stats(), tp.shards[0]
		if st.Created != s0.CtCreated || st.EvictLRU != s0.CtEvicted || rp.ct.Len() != s0.CtLive {
			errs = append(errs, fmt.Errorf("parity: replica conntrack created/evicted/live %d/%d/%d, service %d/%d/%d",
				st.Created, st.EvictLRU, rp.ct.Len(), s0.CtCreated, s0.CtEvicted, s0.CtLive))
		}
	}
	return errs
}

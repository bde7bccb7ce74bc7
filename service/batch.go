// Batched submission: the Request/Batch types and the single internal
// submit path every public entry point (Submit, SubmitFrame, SubmitBatch,
// SubmitFrameBatch, and Replay) wraps.
//
// A batch is scattered by RSS shard into at most one job per worker, and
// each job runs through VSwitch.ProcessBatch, which amortizes the cache
// and stats bookkeeping across its packets. A blocking submission queues
// every job but its last, then runs that last one itself under the
// shard's lock when the shard has nothing in flight (caller-runs), so a
// one-shard batch crosses no channel at all and an N-shard batch has the
// submitter as one of its N runners; the queued jobs cross their worker
// channels once each. Result delivery and the latency observation are
// paid per batch, not per packet.
package service

import (
	"context"
	"sync"
	"time"

	"gigaflow"
)

// Request is one packet of a Batch: the flow key to process and, once the
// batch has been submitted, its Result.
type Request struct {
	// Key is the flow signature to process.
	Key gigaflow.Key
	// Meta is per-packet metadata the datapath consumes outside the key:
	// today the TCP flag byte, which drives the conntrack state machine
	// when Config.Conntrack is enabled (and is ignored otherwise). The
	// frame entry points fill it from the decoder.
	Meta uint8
	// Result is the packet's outcome. Blocking submissions fill it in
	// completely; nonblocking submissions record only the enqueue outcome
	// in Result.Err (nil, or ErrQueueFull for a dropped packet).
	//
	// A Request whose Result.Err is already non-nil when the batch is
	// submitted (a frame the decoder rejected, see SubmitFrameBatch) is
	// skipped: it keeps its error and is never sent to a worker.
	Result Result

	// frame, when frame.n > 0, marks a wire-routed request: the raw frame
	// bytes live in the batch's arena and are decoded on the owning shard
	// worker instead of by the submitter (see SubmitFrameBatch). Key and
	// Meta start zero; a blocking submission copies the worker's decode
	// back into them at gather time.
	frame frameRef
}

// frameRef locates one wire-routed frame in an arena ([off, off+n) of
// the batch's — or, nonblocking, the job's — wire buffer) together with
// its ingress port and the shard the RSS hash assigned. n == 0 means
// "not a wire-routed entry".
type frameRef struct {
	off, n int
	inPort uint16
	shard  int32
}

// batchJob is one worker's slice of a submitted batch. It crosses the
// worker channel as a single message, or runs inline on the submitting
// goroutine; either way the shard processes keys through
// VSwitch.ProcessBatch and writes res. A queued job's results stream to
// resp when set and its completion is signalled on done, both after the
// shard lock is released.
type batchJob struct {
	keys  []gigaflow.Key
	metas []uint8  // per-key TCP flag bytes, parallel to keys
	idx   []int    // original request indices, parallel to keys
	res   []Result // per-key results, parallel to keys

	// Wire path: when wire is non-nil, frames is parallel to keys and
	// entries with n > 0 are raw frames the worker decodes into keys[i] /
	// metas[i] before the batch scan (runJob). Blocking jobs alias the
	// batch's arena (the submitter blocks until gather, so the batch
	// cannot be reused under them); nonblocking jobs own a copied arena.
	frames []frameRef
	wire   []byte

	done     chan *batchJob // completion signal (nil for fire-and-forget)
	resp     chan<- Result  // per-result fan-out (nonblocking jobs only)
	gathered bool           // completion collected by the submitter

	// pending refcounts outstanding work: 1 for the batch scan plus 1
	// per parked packet (async offload mode), each released by settle,
	// so the job finishes exactly once — when the last parked packet
	// resolves, or at scan end if nothing parked. Guarded by the shard
	// lock.
	pending int
}

// settle releases one unit of the job's outstanding work (see pending)
// and reports whether it was the last, so the caller signals done once
// it has released the shard lock.
func (j *batchJob) settle() bool {
	j.pending--
	return j.pending == 0
}

// offer streams r to the job's response channel without blocking: the
// shutdown paths fail packets this way, since a fire-and-forget submitter
// may have stopped reading.
func (j *batchJob) offer(r Result) {
	if j.resp == nil {
		return
	}
	select {
	case j.resp <- r:
	default:
	}
}

// collect copies a completed job's results back into the batch — and,
// for wire-routed entries, the key and TCP flags the shard worker
// decoded, so Batch.Request(i).Key is populated after a blocking
// SubmitFrameBatch regardless of which side ran the decoder.
func (j *batchJob) collect(b *Batch) {
	j.gathered = true
	for i, ri := range j.idx {
		b.reqs[ri].Result = j.res[i]
		if j.wire != nil && j.frames[i].n > 0 {
			b.reqs[ri].Key = j.keys[i]
			b.reqs[ri].Meta = j.metas[i]
		}
	}
}

// Batch is a reusable collection of Requests submitted as one unit.
// Reset/Add refill it without reallocating, so a steady-state submitter
// (Replay, the benchmarks) allocates nothing per batch.
//
// A Batch is not safe for concurrent use: it belongs to one submitting
// goroutine and must not be read or modified while a SubmitBatch call on
// it is in flight.
type Batch struct {
	reqs []Request
	wire []byte         // arena for wire-routed frame bytes (SubmitFrameBatch)
	jobs []batchJob     // per-worker scatter scratch, reused across submissions
	done chan *batchJob // completion channel, reused across submissions
}

// NewBatch creates an empty batch with room for capacity requests.
func NewBatch(capacity int) *Batch {
	return &Batch{reqs: make([]Request, 0, capacity)}
}

// Reset empties the batch for reuse, keeping its buffers.
func (b *Batch) Reset() {
	b.reqs = b.reqs[:0]
	b.wire = b.wire[:0]
}

// Len reports the number of requests in the batch.
func (b *Batch) Len() int { return len(b.reqs) }

// Add appends a request for key k with a zeroed Result.
func (b *Batch) Add(k gigaflow.Key) {
	b.reqs = append(b.reqs, Request{Key: k})
}

// AddMeta appends a request for key k carrying per-packet metadata (the
// TCP flag byte; see Request.Meta).
func (b *Batch) AddMeta(k gigaflow.Key, meta uint8) {
	b.reqs = append(b.reqs, Request{Key: k, Meta: meta})
}

// addRejected appends a request that is already failed (a refused frame):
// it carries err and is never submitted to a worker.
func (b *Batch) addRejected(err error) {
	b.reqs = append(b.reqs, Request{Result: Result{Err: err}})
}

// addFrame appends a wire-routed request: the frame bytes are copied
// into the batch's arena — so the caller may reuse its own buffer the
// moment this returns, preserving the streaming single-buffer contract —
// and the full decode is deferred to the shard worker the RSS hash
// picked.
func (b *Batch) addFrame(inPort uint16, data []byte, shard int) {
	off := len(b.wire)
	b.wire = append(b.wire, data...)
	b.reqs = append(b.reqs, Request{frame: frameRef{
		off: off, n: len(data), inPort: inPort, shard: int32(shard),
	}})
}

// Request returns request i for in-place inspection of its Key and Result.
func (b *Batch) Request(i int) *Request { return &b.reqs[i] }

// Result returns request i's result.
func (b *Batch) Result(i int) Result { return b.reqs[i].Result }

// ensureJobs sizes the per-worker scatter scratch and clears it for a new
// submission.
func (b *Batch) ensureJobs(nw int) {
	if cap(b.jobs) < nw {
		b.jobs = make([]batchJob, nw)
	}
	b.jobs = b.jobs[:nw]
	for i := range b.jobs {
		j := &b.jobs[i]
		j.keys = j.keys[:0]
		j.metas = j.metas[:0]
		j.idx = j.idx[:0]
		j.frames = j.frames[:0]
		j.wire = nil
		j.done = nil
		j.resp = nil
		j.gathered = false
		j.pending = 0
	}
	if b.done == nil || cap(b.done) < nw {
		b.done = make(chan *batchJob, nw)
	}
}

// submitOpts collects per-call submission options.
type submitOpts struct {
	nonblocking bool
	resp        chan<- Result
	meta        uint8
}

// SubmitOption configures a single submission call. Options transform
// the config by value rather than through a pointer: taking the
// address of the per-call submitOpts would force it to escape to the
// heap, putting one allocation on every Submit/SubmitBatch — the only
// one the steady-state datapath would have.
type SubmitOption func(submitOpts) submitOpts

// applyOpts folds the call's options over a zero config.
func applyOpts(opts []SubmitOption) submitOpts {
	var o submitOpts
	for _, opt := range opts {
		o = opt(o)
	}
	return o
}

// Nonblocking makes the submission enqueue-only: it never waits for a
// verdict, and a packet whose target worker queue is full is dropped with
// ErrQueueFull (counted against that worker) instead of blocking. Unlike
// blocking submission it does not require a started service — packets
// simply queue until workers exist to drain them.
func Nonblocking() SubmitOption {
	return func(o submitOpts) submitOpts { o.nonblocking = true; return o }
}

// WithResponse directs every processed Result of a nonblocking submission
// to resp (dropped packets produce no send). The channel must have
// capacity for all results routed to it — the worker's send is blocking.
// It has no effect on blocking submissions, whose results land in the
// Batch (or the returned Result) already: nothing is sent on resp.
func WithResponse(resp chan<- Result) SubmitOption {
	return func(o submitOpts) submitOpts { o.resp = resp; return o }
}

// WithTCPFlags attaches the packet's TCP flag byte to a single-key
// Submit, feeding the conntrack state machine when Config.Conntrack is
// enabled (ignored otherwise). SubmitFrame fills it from the decoder
// automatically; batch submitters use Batch.AddMeta instead.
func WithTCPFlags(flags uint8) SubmitOption {
	return func(o submitOpts) submitOpts { o.meta = flags; return o }
}

// batchPool recycles single-request batches so the Submit wrapper stays
// allocation-free at steady state.
var batchPool = sync.Pool{New: func() any { return NewBatch(1) }}

// Submit processes one packet. By default it blocks until the verdict is
// available and returns it; with Nonblocking it only enqueues (the
// returned Result is zero; pair with WithResponse to receive the verdict
// asynchronously). Flows with the same 5-tuple always reach the same
// worker. Errors: ErrNotStarted, ErrClosed, ErrQueueFull (nonblocking),
// ctx.Err(), or the packet's own pipeline error.
func (s *Service) Submit(ctx context.Context, k gigaflow.Key, opts ...SubmitOption) (Result, error) {
	return s.submitKey(ctx, k, applyOpts(opts))
}

// submitKey is the single-key body shared by Submit and SubmitFrame
// (which injects the decoded TCP flags into o.meta itself): a one-request
// batch through the same submission path as SubmitBatch, blocking or not.
func (s *Service) submitKey(ctx context.Context, k gigaflow.Key, o submitOpts) (Result, error) {
	b := batchPool.Get().(*Batch)
	b.Reset()
	b.AddMeta(k, o.meta)
	err := s.submit(ctx, b, o)
	r := b.reqs[0].Result
	batchPool.Put(b)
	switch {
	case err != nil:
		return Result{}, err
	case o.nonblocking:
		return Result{}, r.Err // the enqueue outcome only
	}
	return r, r.Err
}

// SubmitBatch submits every request in b as one unit: the batch is
// scattered into at most one message per worker, each worker processes
// its share through the batched hot path, and per-request Results land
// back in b positionally.
//
// Blocking (default): returns after every request has its Result; order
// within a worker is submission order, and a request's error (pipeline
// failure) is in its Result.Err while call-level failures (ErrNotStarted,
// ErrClosed, ctx.Err()) are returned. Even on a call-level failure every
// request that reached a worker is drained before returning, so b is
// always safe to reuse; requests that never ran carry the call error in
// their Result.Err.
//
// With Nonblocking: requests are enqueued without waiting; a request
// whose worker queue is full gets ErrQueueFull in its Result.Err, the
// rest have Result.Err nil with verdicts unreported (use WithResponse to
// stream them). The batch may be reused immediately.
func (s *Service) SubmitBatch(ctx context.Context, b *Batch, opts ...SubmitOption) error {
	return s.submit(ctx, b, applyOpts(opts))
}

// submit is the single internal submission path. Requests pre-marked with
// an error (rejected frames) are skipped.
func (s *Service) submit(ctx context.Context, b *Batch, o submitOpts) error {
	if len(b.reqs) == 0 {
		return nil
	}
	if o.nonblocking {
		return s.submitNonblocking(b, o.resp)
	}
	switch s.state.Load() {
	case stateNew:
		return ErrNotStarted
	case stateClosed:
		return ErrClosed
	}
	return s.submitBlocking(ctx, b)
}

// submitBlocking scatters b into per-worker jobs backed by the batch's
// own reusable buffers, enqueues each job as one message — except the
// last, which it runs inline on its shard when it can (runInline) — and
// gathers completions. On context cancellation or service shutdown it
// still drains every job already handed to a worker — workers write into
// the batch's buffers, so returning while one is in flight would corrupt
// the next use of the batch and leak its results.
func (s *Service) submitBlocking(ctx context.Context, b *Batch) error {
	// An already-cancelled context must fail deterministically: the enqueue
	// select picks at random among ready cases, and an open worker-queue
	// slot would otherwise race ctx.Done.
	if err := ctx.Err(); err != nil {
		for i := range b.reqs {
			if b.reqs[i].Result.Err == nil {
				b.reqs[i].Result = Result{Err: err}
			}
		}
		return err
	}
	nw := len(s.workers)
	b.ensureJobs(nw)
	wirePath := len(b.wire) > 0
	last := -1 // the last non-empty job: this goroutine runs it
	for i := range b.reqs {
		if b.reqs[i].Result.Err != nil {
			continue // pre-rejected (bad frame): never submitted
		}
		var w int
		if fr := b.reqs[i].frame; fr.n > 0 {
			w = int(fr.shard) // routed from wire bytes at add time
		} else {
			w = s.shardOfKey(&b.reqs[i].Key)
		}
		last = max(last, w)
		j := &b.jobs[w]
		j.keys = append(j.keys, b.reqs[i].Key)
		j.metas = append(j.metas, b.reqs[i].Meta)
		j.idx = append(j.idx, i)
		if wirePath {
			// frames stays parallel to keys (zero ref = key-routed entry).
			// Blocking jobs alias the batch arena: the submitter blocks
			// until gather, so the arena outlives every job.
			j.frames = append(j.frames, b.reqs[i].frame)
			j.wire = b.wire
		}
	}

	start := time.Now()
	enqueued := 0
	var callErr error
	for w := range b.jobs {
		j := &b.jobs[w]
		if len(j.keys) == 0 {
			continue
		}
		j.done = b.done
		if cap(j.res) < len(j.keys) {
			j.res = make([]Result, len(j.keys))
		}
		j.res = j.res[:len(j.keys)]
		if w == last {
			ran, finished, err := s.runInline(s.workers[w], j)
			if err != nil {
				callErr = err
				break
			}
			if ran {
				if finished {
					j.collect(b)
				} else {
					enqueued++ // parked packets complete it through done
				}
				break
			}
			// The shard has messages in flight: queue behind them.
		}
		if !s.workers[w].post(message{job: j}, ctx.Done(), s.term) {
			if callErr = ctx.Err(); callErr == nil {
				callErr = ErrClosed
			}
			break
		}
		enqueued++
	}

	for collected := 0; collected < enqueued; {
		select {
		case j := <-b.done:
			j.collect(b)
			collected++
		case <-s.term:
			// The workers have exited. Every completion they delivered
			// happened before term closed, so a nonblocking drain of
			// b.done is complete; jobs still sitting in dead queues will
			// never be touched again and are safe to abandon.
			for drained := true; drained && collected < enqueued; {
				select {
				case j := <-b.done:
					j.collect(b)
					collected++
				default:
					drained = false
				}
			}
			if callErr == nil {
				callErr = ErrClosed
			}
			collected = enqueued
		}
	}

	if callErr != nil {
		// Requests that never ran (job not enqueued, or abandoned at
		// shutdown) carry the call-level error so per-index inspection
		// stays meaningful.
		for w := range b.jobs {
			j := &b.jobs[w]
			if j.gathered {
				continue
			}
			for _, ri := range j.idx {
				b.reqs[ri].Result = Result{Err: callErr}
			}
		}
		return callErr
	}
	s.latency.Observe(float64(time.Since(start).Nanoseconds()))
	return nil
}

// submitNonblocking scatters b into freshly allocated worker-owned jobs —
// the caller may reuse the batch the moment we return, so nonblocking
// jobs cannot alias its buffers (wire-routed frame bytes are copied into
// a job-owned arena). Full queues drop that worker's whole job,
// recording ErrQueueFull per request.
func (s *Service) submitNonblocking(b *Batch, resp chan<- Result) error {
	nw := len(s.workers)
	perWorker := make([]*batchJob, nw)
	wirePath := len(b.wire) > 0
	for i := range b.reqs {
		if b.reqs[i].Result.Err != nil {
			continue // pre-rejected (bad frame): never submitted
		}
		var w int
		fr := b.reqs[i].frame
		if fr.n > 0 {
			w = int(fr.shard)
		} else {
			w = s.shardOfKey(&b.reqs[i].Key)
		}
		j := perWorker[w]
		if j == nil {
			j = &batchJob{resp: resp}
			perWorker[w] = j
		}
		j.keys = append(j.keys, b.reqs[i].Key)
		j.metas = append(j.metas, b.reqs[i].Meta)
		j.idx = append(j.idx, i)
		if wirePath {
			if fr.n > 0 {
				// Re-base the frame into the job's own arena: the batch's
				// may be overwritten the moment this call returns.
				off := len(j.wire)
				j.wire = append(j.wire, b.wire[fr.off:fr.off+fr.n]...)
				fr.off = off
			}
			j.frames = append(j.frames, fr)
			if j.wire == nil {
				// Keep the wire-path marker truthful even for a job that so
				// far holds only key-routed entries.
				j.wire = []byte{}
			}
		}
		b.reqs[i].Result = Result{}
	}
	for w, j := range perWorker {
		if j == nil {
			continue
		}
		j.res = make([]Result, len(j.keys))
		if !s.workers[w].tryPost(message{job: j}) {
			s.workers[w].drops.Add(uint64(len(j.keys)))
			for _, ri := range j.idx {
				b.reqs[ri].Result = Result{Err: ErrQueueFull}
			}
		}
	}
	return nil
}

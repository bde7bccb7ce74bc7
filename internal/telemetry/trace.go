package telemetry

import "time"

// Stage is one step of a packet's traversal trace: a cache-tier lookup, a
// per-LTM-table match, the slowpath pipeline walk, or rule installation.
type Stage struct {
	// Name identifies the stage: "microflow", "conntrack", "gigaflow",
	// "megaflow", "ltm-table", "slowpath", "partition+install", or "park"
	// (a miss handed to the upcall engine).
	Name string `json:"name"`
	// Table is the LTM cache table index for "ltm-table" stages; -1 on
	// stages that are not per-table annotations (0 is a real index, so it
	// cannot double as "unset").
	Table int `json:"table"`
	// Tag is the pipeline-table tag the matched entry carried; -1 when not
	// applicable.
	Tag int `json:"tag"`
	// Priority is the matched entry's sub-traversal span ρ; -1 when not
	// applicable.
	Priority int `json:"priority"`
	// Hit reports whether the stage's lookup matched.
	Hit bool `json:"hit,omitempty"`
	// DurNs is the stage's wall-clock duration; 0 for annotation stages
	// recorded after the fact (per-table match details).
	DurNs int64 `json:"dur_ns,omitempty"`
}

// Trace is the stage-annotated view of one sampled packet's flight
// record. Seq, StartUnixNs, TotalNs and the hit flags come from that
// record: Seq is its sequence number in the recorder (the record is the
// Seq-th written), TotalNs its LatNs, StartUnixNs its timestamp minus
// that latency, and the hit flags follow from its tier. Worker is left
// for the owner to fill in.
type Trace struct {
	Seq          uint64  `json:"seq"`
	StartUnixNs  int64   `json:"start_unix_ns"`
	Key          string  `json:"key"`
	Worker       string  `json:"worker,omitempty"`
	CacheHit     bool    `json:"cache_hit"`
	MicroflowHit bool    `json:"microflow_hit,omitempty"`
	Verdict      string  `json:"verdict,omitempty"`
	Err          string  `json:"error,omitempty"`
	TotalNs      int64   `json:"total_ns"`
	Stages       []Stage `json:"stages"`
}

// maxTraces is how many finished traces a recorder retains (oldest
// overwritten); a power of two.
const maxTraces = 256

// Sampled-packet tracing. A recorder built with a sampling rate N > 0
// traces one packet in N: the caller asks Sample once per packet (only
// while SampleEvery is non-zero, which it reads once per batch), opens
// the sampled packet's trace with TraceBegin — the exact cold stamp its
// flight record is timed from — annotates stages, and the packet's Cold
// call, flagged FlightTraced, finishes the trace from the same stamp that
// writes its record. Finished traces stay in a ring of maxTraces; with
// N == 0 no trace storage exists.

// SampleEvery reports the 1-in-N trace sampling rate (0: tracing off).
func (r *LatencyRecorder) SampleEvery() int { return int(r.traceEvery) }

// Sampled reports how many traces have been finished since construction
// (or the last Reset).
func (r *LatencyRecorder) Sampled() uint64 { return r.traceCount }

// Sample counts one packet toward the sampling rate and reports whether
// it is the one in N to trace. Call only while SampleEvery is non-zero.
//
//gf:hotpath
func (r *LatencyRecorder) Sample() bool {
	r.traceLeft--
	if r.traceLeft != 0 {
		return false
	}
	r.traceLeft = r.traceEvery
	return true
}

// TraceBegin opens the sampled packet's trace: it takes the cold stamp
// (ColdBegin) the packet's exactly-timed record starts at and records the
// rendered flow key.
func (r *LatencyRecorder) TraceBegin(key string) {
	r.ColdBegin()
	r.cur = Trace{Key: key, Stages: r.cur.Stages[:0]}
	r.tracing = true
}

// StageBegin opens a timed stage of the open trace.
//
//gf:hotpath-safe sampled packets only; appends a stage and reads the clock by contract
func (r *LatencyRecorder) StageBegin(name string) {
	r.cur.Stages = append(r.cur.Stages, Stage{Name: name, Table: -1, Tag: -1, Priority: -1})
	r.stageStart = int64(time.Since(r.base))
}

// StageEnd closes the most recently opened stage, recording its duration
// and hit flag.
//
//gf:hotpath-safe sampled packets only; closing a stage reads the clock by contract
func (r *LatencyRecorder) StageEnd(hit bool) {
	s := &r.cur.Stages[len(r.cur.Stages)-1]
	s.DurNs = int64(time.Since(r.base)) - r.stageStart
	s.Hit = hit
}

// StageNote appends an annotation stage (no duration): one matched LTM
// table with its index, tag, and priority.
//
//gf:hotpath-safe sampled packets only; annotations append by contract
func (r *LatencyRecorder) StageNote(name string, table, tag, priority int) {
	r.cur.Stages = append(r.cur.Stages, Stage{
		Name: name, Table: table, Tag: tag, Priority: priority, Hit: true,
	})
}

// TraceVerdict records the open trace's outcome; the packet's Cold call
// finishes it.
func (r *LatencyRecorder) TraceVerdict(verdict string, err error) {
	r.cur.Verdict = verdict
	if err != nil {
		r.cur.Err = err.Error()
	}
}

// finishTrace closes the open trace from the flight record rec that Cold
// just wrote, and retains it. The evicted trace's stage buffer becomes
// the next trace's, so steady-state tracing allocates only the rendered key and verdict.
func (r *LatencyRecorder) finishTrace(rec *FlightRecord) {
	r.cur.Seq = r.seq
	r.cur.TotalNs = int64(rec.LatNs)
	r.cur.StartUnixNs = rec.TS - r.cur.TotalNs
	r.cur.CacheHit = rec.Tier < TierSlowpath
	r.cur.MicroflowHit = rec.Tier == TierMicroflow
	slot := &r.traces[r.traceCount%maxTraces]
	spare := slot.Stages
	*slot = r.cur
	r.cur.Stages = spare
	r.traceCount++
	r.tracing = false
}

// Traces copies up to n of the newest retained traces, newest first
// (n <= 0: every retained trace).
func (r *LatencyRecorder) Traces(n int) []Trace {
	avail := r.traceCount
	if avail > maxTraces {
		avail = maxTraces
	}
	if n > 0 && uint64(n) < avail {
		avail = uint64(n)
	}
	out := make([]Trace, avail)
	for i := uint64(0); i < avail; i++ {
		out[i] = r.traces[(r.traceCount-1-i)%maxTraces]
		out[i].Stages = append([]Stage(nil), out[i].Stages...) // the ring reuses its buffers
	}
	return out
}

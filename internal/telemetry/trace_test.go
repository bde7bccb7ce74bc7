package telemetry

import (
	"errors"
	"testing"
	"time"
)

// tracePacket drives one packet through the recorder the way the VSwitch
// kernel does: sample, open the trace, one timed stage, outcome, and the
// Cold stamp that writes the packet's record. It reports whether the
// packet was sampled.
func tracePacket(r *LatencyRecorder, key string, tier Tier, err error) bool {
	if r.SampleEvery() == 0 || !r.Sample() {
		return false
	}
	r.TraceBegin(key)
	r.StageBegin("gigaflow")
	r.StageEnd(tier < TierSlowpath)
	r.TraceVerdict("output:1", err)
	r.Cold(tier, 9, FlightTraced)
	return true
}

// TestTracerDisabled: a recorder without a sampling rate keeps no trace
// storage and never samples.
func TestTracerDisabled(t *testing.T) {
	r := NewLatencyRecorder(8, 0, 0)
	if r.SampleEvery() != 0 || r.traces != nil {
		t.Fatalf("SampleEvery=%d, trace storage %v", r.SampleEvery(), r.traces != nil)
	}
	for i := 0; i < 100; i++ {
		if tracePacket(r, "k", TierGigaflow, nil) {
			t.Fatal("disabled recorder sampled a packet")
		}
	}
	if r.Sampled() != 0 || len(r.Traces(0)) != 0 {
		t.Errorf("sampled=%d traces=%d", r.Sampled(), len(r.Traces(0)))
	}
	// A FlightTraced record without an open trace finishes nothing.
	r = NewLatencyRecorder(8, 0, 0)
	r.ColdBegin()
	r.Cold(TierGigaflow, 7, FlightTraced)
	if r.Sampled() != 0 {
		t.Errorf("stray traced record finished a trace")
	}
}

// TestTracerSetSampling: the sampling rate given at construction is the
// one the recorder keeps; 1-in-1 samples every packet and a negative rate
// clamps to disabled.
func TestTracerSetSampling(t *testing.T) {
	r := NewLatencyRecorder(8, 0, 1)
	if r.SampleEvery() != 1 {
		t.Errorf("SampleEvery = %d", r.SampleEvery())
	}
	for i := 0; i < 20; i++ {
		if !tracePacket(r, "k", TierGigaflow, nil) {
			t.Fatalf("packet %d: 1-in-1 sampling must sample every packet", i)
		}
	}
	r = NewLatencyRecorder(8, 0, -5)
	if r.SampleEvery() != 0 || r.traces != nil {
		t.Fatalf("negative rate: SampleEvery=%d, trace storage %v", r.SampleEvery(), r.traces != nil)
	}
	for i := 0; i < 20; i++ {
		if tracePacket(r, "k", TierGigaflow, nil) {
			t.Fatal("negative rate must disable sampling")
		}
	}
}

// TestTracerSamplingRate: 1-in-N sampling picks exactly the Nth, 2Nth, ...
// packet, and Reset restarts the count.
func TestTracerSamplingRate(t *testing.T) {
	r := NewLatencyRecorder(64, 0, 10)
	if r.SampleEvery() != 10 {
		t.Fatalf("SampleEvery = %d", r.SampleEvery())
	}
	for i := 1; i <= 1000; i++ {
		if got, want := tracePacket(r, "k", TierMicroflow, nil), i%10 == 0; got != want {
			t.Fatalf("packet %d: sampled=%v, want %v", i, got, want)
		}
	}
	if r.Sampled() != 100 {
		t.Errorf("Sampled() = %d, want exactly 100 at 1-in-10", r.Sampled())
	}
	r.Reset()
	if r.Sampled() != 0 || len(r.Traces(0)) != 0 {
		t.Fatalf("Reset kept %d sampled, %d traces", r.Sampled(), len(r.Traces(0)))
	}
	for i := 1; i <= 10; i++ {
		if got := tracePacket(r, "k", TierMicroflow, nil); got != (i == 10) {
			t.Fatalf("after Reset, packet %d: sampled=%v", i, got)
		}
	}
}

// TestRecorderTraceStages: a trace carries its key, timed stages and
// per-table notes, and takes its sequence number, timing and hit flags
// from the FlightTraced record written by the same Cold stamp.
func TestRecorderTraceStages(t *testing.T) {
	r := NewLatencyRecorder(64, 0, 1)
	r.BeginBatch(time.Now().UnixNano())
	r.Hit(TierMicroflow, 1) // an untraced hit before it
	if !r.Sample() {
		t.Fatal("1-in-1 must sample")
	}
	r.TraceBegin("ip_src=10.0.0.1")
	r.StageBegin("microflow")
	r.StageEnd(false)
	r.StageBegin("gigaflow")
	spin(time.Microsecond)
	r.StageEnd(true)
	r.StageNote("ltm-table", 2, 5, 7)
	r.TraceVerdict("output:4", nil)
	r.Cold(TierGigaflow, 42, FlightTraced)
	r.EndBatch()

	got := r.Traces(0)
	if len(got) != 1 {
		t.Fatalf("traces = %d", len(got))
	}
	trace := got[0]
	if trace.Key != "ip_src=10.0.0.1" || trace.Verdict != "output:4" || !trace.CacheHit || trace.MicroflowHit {
		t.Errorf("trace = %+v", trace)
	}
	rec := r.Recent(1)[0]
	if trace.Seq != r.Seq() || rec.Flags != FlightTraced || rec.KeyHash != 42 {
		t.Errorf("seq %d, record %+v: want the trace to be record %d", trace.Seq, rec, r.Seq())
	}
	if trace.TotalNs != int64(rec.LatNs) || trace.StartUnixNs != rec.TS-int64(rec.LatNs) {
		t.Errorf("trace total=%d start=%d, record lat=%d ts=%d", trace.TotalNs, trace.StartUnixNs, rec.LatNs, rec.TS)
	}
	if len(trace.Stages) != 3 {
		t.Fatalf("stages = %+v", trace.Stages)
	}
	if s := trace.Stages[0]; s.Name != "microflow" || s.Hit || s.Table != -1 || s.Tag != -1 || s.Priority != -1 {
		t.Errorf("stage 0 = %+v (timed stages carry -1 table/tag/priority)", s)
	}
	if s := trace.Stages[1]; s.Name != "gigaflow" || !s.Hit || s.DurNs < int64(time.Microsecond) {
		t.Errorf("stage 1 = %+v, want a hit timed >= 1µs", s)
	}
	if s := trace.Stages[2]; s.Name != "ltm-table" || s.Table != 2 || s.Tag != 5 || s.Priority != 7 || s.DurNs != 0 {
		t.Errorf("stage 2 = %+v", s)
	}
	if trace.TotalNs < trace.Stages[1].DurNs {
		t.Errorf("total %d shorter than its stage %d", trace.TotalNs, trace.Stages[1].DurNs)
	}
	if got := r.Histogram(TierGigaflow).Count(); got != 0 {
		t.Errorf("traced packet folded into the histogram (%d)", got)
	}

	// A microflow hit sets both flags; a slow-path tier clears them.
	tracePacket(r, "b", TierMicroflow, nil)
	tracePacket(r, "c", TierSlowpath, nil)
	got = r.Traces(2)
	if !got[1].CacheHit || !got[1].MicroflowHit || got[0].CacheHit || got[0].MicroflowHit {
		t.Errorf("hit flags: microflow %+v, slowpath %+v", got[1], got[0])
	}
}

func TestTraceFinishError(t *testing.T) {
	r := NewLatencyRecorder(8, 0, 1)
	tracePacket(r, "k", TierSlowpath, errors.New("install failed"))
	if got := r.Traces(1)[0].Err; got != "install failed" {
		t.Errorf("err = %q", got)
	}
	tracePacket(r, "k", TierSlowpath, nil)
	if got := r.Traces(1)[0].Err; got != "" {
		t.Errorf("error leaked into the next trace: %q", got)
	}
}

// TestRingWraparoundAndOrdering: retention is bounded at maxTraces,
// newest first, and a returned trace does not change as the ring reuses
// its stage buffers.
func TestRingWraparoundAndOrdering(t *testing.T) {
	r := NewLatencyRecorder(8, 0, 1)
	tracePacket(r, "first", TierMicroflow, nil)
	first := r.Traces(1)[0]
	const total = maxTraces + 10
	for i := 1; i < total; i++ {
		tracePacket(r, string(rune('a'+i%26)), TierMicroflow, nil)
	}
	got := r.Traces(0)
	if len(got) != maxTraces {
		t.Fatalf("ring holds %d, want %d", len(got), maxTraces)
	}
	for i, trc := range got {
		if want := uint64(total - i); trc.Seq != want {
			t.Fatalf("traces[%d].Seq = %d, want %d (newest first)", i, trc.Seq, want)
		}
	}
	if want := string(rune('a' + (total-1)%26)); got[0].Key != want {
		t.Errorf("newest key = %q, want %q", got[0].Key, want)
	}
	if first.Key != "first" || len(first.Stages) != 1 || first.Stages[0].Name != "gigaflow" {
		t.Errorf("an earlier copy changed under reuse: %+v", first)
	}
	if n := len(r.Traces(2)); n != 2 {
		t.Errorf("Traces(2) = %d traces", n)
	}
}

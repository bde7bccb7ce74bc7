package main

import (
	"fmt"
	"math/rand"
	"time"

	"gigaflow"
	wire "gigaflow/internal/packet"
	"gigaflow/internal/pipebench"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/traffic"
	"gigaflow/internal/wiredemo"
	"gigaflow/service"
)

// batchSize is the closed loop's submission unit.
const batchSize = service.DefaultBatchSize

// workloadNames lists the workloads in the order BENCHMARK.json names
// them.
var workloadNames = []string{"pipebench-psc", "wire-hot", "dnslb-churn", "pipebench-psc-upcall"}

// workload is one generated input set and the service configuration it
// runs under. Every pass submits the same batches to a fresh Service:
// the first warm batches off the clock, the rest measured.
type workload struct {
	name    string
	cfg     service.Config
	pipe    *gigaflow.Pipeline
	src     source
	batches int // batches in one pass, warm ones included
	warm    int // leading batches submitted off the clock
	genTime time.Duration
	info    string // one-line description of the generated inputs

	// ct marks a conntrack workload; queries counts the connections one
	// pass must create (the dnslb invariant created == queries).
	ct      bool
	queries int
}

// source yields a pass's batches and checks their results. Both methods
// run between SubmitFrameBatch calls and must not allocate, so the
// measured phase's allocation count is the program's own.
type source interface {
	// frames returns batch i's frames; it may depend on the results of
	// earlier batches (dnslb replies).
	frames(i int) []service.Frame
	// check verifies batch i's results in b and returns how many of them
	// failed (Result.Err set, or an outcome the oracle rejects).
	check(i int, b *service.Batch) int
}

// outcome is the oracle's answer for one flow.
type outcome struct {
	verdict gigaflow.Verdict
	final   gigaflow.Key
}

// staticSource replays a fixed frame sequence, cycling when a pass has
// more batches than the sequence holds. want[flow[j]] is frame j's
// expected outcome.
type staticSource struct {
	seq  []service.Frame
	flow []int32
	want []outcome
}

func (s *staticSource) span(i int) (lo, hi int) {
	lo = (i * batchSize) % len(s.seq)
	hi = lo + batchSize
	if hi > len(s.seq) {
		hi = len(s.seq)
	}
	return lo, hi
}

func (s *staticSource) frames(i int) []service.Frame {
	lo, hi := s.span(i)
	return s.seq[lo:hi]
}

func (s *staticSource) check(i int, b *service.Batch) int {
	lo, _ := s.span(i)
	failed := 0
	for j := 0; j < b.Len(); j++ {
		r := b.Result(j)
		w := &s.want[s.flow[lo+j]]
		if r.Err != nil || r.Verdict != w.verdict || r.Final != w.final {
			failed++
		}
	}
	return failed
}

// oracle computes the cache-free reference outcome of every key, each
// once, before any timing starts.
func oracle(p *gigaflow.Pipeline, keys []gigaflow.Key) ([]outcome, error) {
	ref := gigaflow.NewReference(p, false, 0)
	out := make([]outcome, len(keys))
	for i, k := range keys {
		r, err := ref.Process(k, 0)
		if err != nil {
			return nil, fmt.Errorf("oracle: flow %d: %w", i, err)
		}
		out[i] = outcome{verdict: r.Verdict, final: r.Final}
	}
	return out, nil
}

// encodeFrame serializes k and checks that the frame decodes back to k
// exactly, so the oracle's key is the one the service will see.
func encodeFrame(k gigaflow.Key) (service.Frame, error) {
	in := uint16(k.Get(gigaflow.FieldInPort))
	data := wire.Encode(k)
	if got, info := wire.Decode(data, in); got != k || !info.OK() {
		return service.Frame{}, fmt.Errorf("key %v does not round-trip the wire codec", k)
	}
	return service.Frame{InPort: in, Data: data}, nil
}

// scaled shrinks n by scale with a floor, for the tiny-scale test runs.
func scaled(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		v = min
	}
	return v
}

// newWorkload generates the named workload's inputs from seed. scale 1
// is the benchmark's size; smaller values shrink the trace, flow and
// client counts for tests.
func newWorkload(name string, seed int64, scale float64) (*workload, error) {
	start := time.Now()
	var w *workload
	var err error
	switch name {
	case "pipebench-psc":
		w, err = pscWorkload(seed, scale, false)
	case "pipebench-psc-upcall":
		w, err = pscWorkload(seed, scale, true)
	case "wire-hot":
		w, err = wireHotWorkload(seed, scale)
	case "dnslb-churn":
		w, err = dnslbWorkload(seed, scale)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	w.name = name
	w.genTime = time.Since(start)
	return w, nil
}

// pscWorkload is the paper's workload: the PISCES L2L3-ACL pipeline
// populated by Pipebench, carrying a high-locality Pareto trace as a
// time-sorted frame sequence on one shard.
func pscWorkload(seed int64, scale float64, upcall bool) (*workload, error) {
	pcfg := pipebench.PaperConfig(pipelines.PSC, seed)
	pcfg.NumChains = scaled(50000, scale, 500)
	pw, err := pipebench.Generate(pcfg)
	if err != nil {
		return nil, err
	}
	tcfg := traffic.Config{Seed: seed + 2, NumFlows: scaled(100000, scale, 1000)}
	flows := pw.Flows(tcfg, traffic.HighLocality)
	trace := traffic.Expand(tcfg, flows)

	keys := make([]gigaflow.Key, len(flows))
	for i := range flows {
		keys[i] = flows[i].Key
	}
	want, err := oracle(pw.Pipeline, keys)
	if err != nil {
		return nil, err
	}
	src := &staticSource{seq: make([]service.Frame, len(trace)), flow: make([]int32, len(trace)), want: want}
	for i := range trace {
		if src.seq[i], err = encodeFrame(trace[i].Key); err != nil {
			return nil, err
		}
		src.flow[i] = int32(trace[i].FlowID)
	}
	batches := (len(trace) + batchSize - 1) / batchSize
	cfg := service.Config{Workers: 1, MicroflowCapacity: 8192}
	if upcall {
		cfg.Upcall = service.UpcallConfig{Workers: 1}
	}
	return &workload{
		cfg:     cfg,
		pipe:    pw.Pipeline,
		src:     src,
		batches: batches,
		warm:    batches / 10,
		info: fmt.Sprintf("PSC pipeline, %d chains, %d rules; %d flows, %d frames; 1 shard",
			len(pw.Chains), pw.Pipeline.NumRules(), len(flows), len(trace)),
	}, nil
}

// wireHotWorkload is the submission-path workload: 1024 wiredemo flows
// on one shard, resident in the microflow tier after one warm round.
func wireHotWorkload(seed int64, scale float64) (*workload, error) {
	const flows = 1024
	rounds := scaled(400, scale, 4)
	rng := rand.New(rand.NewSource(seed))
	keys := make([]gigaflow.Key, flows)
	src := &staticSource{seq: make([]service.Frame, flows), flow: make([]int32, flows)}
	var err error
	for i := range keys {
		keys[i] = wiredemo.Key(i, rng)
		if src.seq[i], err = encodeFrame(keys[i]); err != nil {
			return nil, err
		}
		src.flow[i] = int32(i)
	}
	p := wiredemo.Pipeline()
	if src.want, err = oracle(p, keys); err != nil {
		return nil, err
	}
	perRound := flows / batchSize
	return &workload{
		cfg:     service.Config{Workers: 1, MicroflowCapacity: 8192},
		pipe:    p,
		src:     src,
		batches: (1 + rounds) * perRound,
		warm:    perRound,
		info:    fmt.Sprintf("wiredemo pipeline; %d flows x %d measured rounds; 1 shard", flows, rounds),
	}, nil
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"gigaflow"
	"gigaflow/internal/experiments"
	"gigaflow/internal/pipebench"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/sim"
	"gigaflow/internal/stats"
	"gigaflow/internal/telemetry"
	"gigaflow/internal/traffic"
)

// latencyRow is one (backend, phase, tier) percentile ladder of the
// latency experiment, serialized into BENCH_latency.json by -json.
type latencyRow struct {
	Backend string  `json:"backend"` // "gigaflow" | "megaflow"
	Phase   string  `json:"phase"`   // "cold_storm" | "warm"
	Tier    string  `json:"tier"`    // resolution tier (microflow/gigaflow/megaflow/slowpath)
	Count   uint64  `json:"count"`
	MeanNs  float64 `json:"mean_ns"`
	P50     float64 `json:"p50_ns"`
	P90     float64 `json:"p90_ns"`
	P99     float64 `json:"p99_ns"`
	P999    float64 `json:"p999_ns"`
	MaxNs   int64   `json:"max_ns"`
}

// latencyReport is the BENCH_latency.json document: the tail-latency
// trajectory every future perf PR extends. Latencies are real wall-clock
// nanoseconds measured by the VSwitch's latency recorder; packets are
// driven one per attribution batch, so every hit run spans exactly one
// packet (its span runs from the batch's wall anchor to the EndBatch
// clock read — recorder overhead included — so sub-clock-resolution
// hits can round to zero), and cold events are stamped exactly.
type latencyReport struct {
	Pipeline string       `json:"pipeline"`
	Flows    int          `json:"flows"`
	Seed     int64        `json:"seed"`
	Rows     []latencyRow `json:"rows"`
}

// runLatency replays the slow-path workload (paper pipeline, low
// locality) on both backends and reports per-tier latency percentile
// ladders for two regimes: the cold-start storm (first replay on empty
// caches — every flow upcalls) and the warm steady state (second replay
// of the same trace). The recorder resets between phases so each phase
// reports its own ladder.
func runLatency(p experiments.Params, jsonPath string) (*stats.Table, error) {
	spec := pipelines.PSC
	if len(p.Pipelines) > 0 {
		spec = p.Pipelines[0]
	}
	cfg := pipebench.PaperConfig(spec, p.Seed)
	if p.NumChains > 0 {
		cfg.NumChains = p.NumChains
	}
	w, err := pipebench.Generate(cfg)
	if err != nil {
		return nil, err
	}
	flows := p.NumFlows
	if flows == 0 {
		flows = 100000
	}
	trace := sim.BuildTrace(w, flows, traffic.LowLocality, p.Seed+2)

	report := latencyReport{Pipeline: spec.Name, Flows: flows, Seed: p.Seed}
	for _, backend := range []string{"gigaflow", "megaflow"} {
		rec := telemetry.NewLatencyRecorder(1<<12, 0, 0)
		var v *gigaflow.VSwitch
		if backend == "gigaflow" {
			v = gigaflow.NewVSwitch(w.Pipeline,
				gigaflow.CacheConfig{NumTables: p.GFTables, TableCapacity: p.GFTableCap},
				gigaflow.WithMicroflow(1<<15),
				gigaflow.WithLatencyRecorder(rec))
		} else {
			v = gigaflow.NewVSwitch(w.Pipeline, gigaflow.CacheConfig{},
				gigaflow.WithMegaflowBackend(p.MFCap),
				gigaflow.WithMicroflow(1<<15),
				gigaflow.WithLatencyRecorder(rec))
		}
		for _, phase := range []string{"cold_storm", "warm"} {
			rec.Reset()
			// Real wall clock, not the trace's virtual timestamps: the
			// recorder anchors batch offsets on the wall delta between
			// Process calls, so a synthetic clock running ahead of real
			// time would clamp every warm span to zero. Wall time also
			// keeps every flow inside its idle timeout, which is exactly
			// the steady state the warm phase wants to measure.
			for i := range trace {
				if _, err := v.Process(trace[i].Key, time.Now().UnixNano()); err != nil {
					return nil, fmt.Errorf("latency: %s/%s: %v", backend, phase, err)
				}
			}
			for t := telemetry.Tier(0); t < telemetry.NumTiers; t++ {
				s := rec.Histogram(t).Snapshot()
				if s.Count == 0 {
					continue
				}
				report.Rows = append(report.Rows, latencyRow{
					Backend: backend,
					Phase:   phase,
					Tier:    t.String(),
					Count:   s.Count,
					MeanNs:  s.MeanNs,
					P50:     s.P50,
					P90:     s.P90,
					P99:     s.P99,
					P999:    s.P999,
					MaxNs:   s.MaxNs,
				})
			}
		}
	}

	if jsonPath != "" {
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return nil, err
		}
	}

	t := &stats.Table{
		Title: fmt.Sprintf("Per-tier latency ladders (wall clock, %s, low locality, %d flows)",
			spec.Name, flows),
		Headers: []string{"backend", "phase", "tier", "count", "p50 ns", "p90 ns", "p99 ns", "p999 ns", "max ns"},
	}
	for _, r := range report.Rows {
		t.AddRow(r.Backend, r.Phase, r.Tier, r.Count,
			fmt.Sprintf("%.0f", r.P50),
			fmt.Sprintf("%.0f", r.P90),
			fmt.Sprintf("%.0f", r.P99),
			fmt.Sprintf("%.0f", r.P999),
			fmt.Sprintf("%d", r.MaxNs))
	}
	return t, nil
}

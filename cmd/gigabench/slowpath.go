package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"gigaflow"
	"gigaflow/internal/experiments"
	"gigaflow/internal/pipebench"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/sim"
	"gigaflow/internal/stats"
	"gigaflow/internal/traffic"
)

// slowpathRow is one measured (backend, phase) cell of the slow-path
// experiment, serialized into BENCH_slowpath.json by -json.
type slowpathRow struct {
	Backend     string  `json:"backend"` // "gigaflow" | "megaflow"
	Phase       string  `json:"phase"`   // "cold" (slow-path heavy) | "warm" (hit path)
	Packets     int     `json:"packets"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	HitRate     float64 `json:"hit_rate"`       // combined hierarchy rate over the phase
	MicroRate   float64 `json:"microflow_rate"` // share absorbed by the exact-match tier
}

// slowpathReport is the BENCH_slowpath.json document.
type slowpathReport struct {
	Pipeline string        `json:"pipeline"`
	Flows    int           `json:"flows"`
	Seed     int64         `json:"seed"`
	Rows     []slowpathRow `json:"rows"`
}

// runSlowpath measures real wall-clock per-packet cost of the matching
// substrate on both backends over an identical trace, from cold caches,
// with the mask diversity of a paper pipeline under low locality — the
// regime where lookups sweep many tuples and most packets take the
// slowpath. The first replay is the cold (slow-path-heavy) phase; an
// immediate second replay of the same trace is the warm (hit-path) phase.
// Allocations are counted with runtime.MemStats across each phase.
func runSlowpath(p experiments.Params, jsonPath string) (*stats.Table, error) {
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

	report := slowpathReport{Pipeline: spec.Name, Flows: flows, Seed: p.Seed}
	for _, backend := range []string{"gigaflow", "megaflow"} {
		var v *gigaflow.VSwitch
		if backend == "gigaflow" {
			v = gigaflow.NewVSwitch(w.Pipeline,
				gigaflow.CacheConfig{NumTables: p.GFTables, TableCapacity: p.GFTableCap},
				gigaflow.WithMicroflow(1<<15))
		} else {
			v = gigaflow.NewVSwitch(w.Pipeline, gigaflow.CacheConfig{},
				gigaflow.WithMegaflowBackend(p.MFCap),
				gigaflow.WithMicroflow(1<<15))
		}
		for _, phase := range []string{"cold", "warm"} {
			before := v.Stats()
			var ms0, ms1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			for i := range trace {
				if _, err := v.Process(trace[i].Key, trace[i].Time); err != nil {
					return nil, fmt.Errorf("slowpath: %s/%s: %v", backend, phase, err)
				}
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms1)
			after := v.Stats()
			n := float64(len(trace))
			d := gigaflow.VSwitchStats{
				Packets:       after.Packets - before.Packets,
				MicroflowHits: after.MicroflowHits - before.MicroflowHits,
				CacheHits:     after.CacheHits - before.CacheHits,
				CacheMisses:   after.CacheMisses - before.CacheMisses,
			}
			report.Rows = append(report.Rows, slowpathRow{
				Backend:     backend,
				Phase:       phase,
				Packets:     len(trace),
				NsPerOp:     float64(elapsed.Nanoseconds()) / n,
				AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / n,
				HitRate:     d.TotalHitRate(),
				MicroRate:   float64(d.MicroflowHits) / n,
			})
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
		Title:   fmt.Sprintf("Slow-path cost (wall clock, %s, low locality, %d flows)", spec.Name, flows),
		Headers: []string{"backend", "phase", "packets", "ns/pkt", "allocs/pkt", "hit rate"},
	}
	for _, r := range report.Rows {
		t.AddRow(r.Backend, r.Phase, r.Packets,
			fmt.Sprintf("%.0f", r.NsPerOp),
			fmt.Sprintf("%.2f", r.AllocsPerOp),
			fmt.Sprintf("%.1f%%", 100*r.HitRate))
	}
	return t, nil
}

package sim

import (
	"fmt"

	"gigaflow"
	"gigaflow/internal/flow"
	"gigaflow/internal/pipebench"
	"gigaflow/internal/stats"
	"gigaflow/internal/traffic"
)

// CacheKind selects the hardware-cache architecture under test.
type CacheKind uint8

const (
	// Megaflow is the single-table wildcard cache baseline.
	Megaflow CacheKind = iota
	// Gigaflow is the K-table LTM sub-traversal cache.
	Gigaflow
)

// String names the kind.
func (k CacheKind) String() string {
	if k == Gigaflow {
		return "gigaflow"
	}
	return "megaflow"
}

// SearchAlgo selects the software cache search algorithm (Fig. 17).
type SearchAlgo uint8

const (
	// TSS is Tuple Space Search.
	TSS SearchAlgo = iota
	// NM is the NuevoMatch learned index.
	NM
)

// String names the algorithm.
func (s SearchAlgo) String() string {
	if s == NM {
		return "NM"
	}
	return "TSS"
}

// Config parameterises one simulation run.
type Config struct {
	Kind CacheKind

	// Gigaflow shape (ignored for Megaflow).
	NumTables     int
	TableCapacity int
	Scheme        gigaflow.Scheme
	Seed          int64

	// Megaflow capacity (ignored for Gigaflow).
	MegaflowCapacity int

	// Offloaded runs the cache on the SmartNIC (hits cost HWHitNs);
	// otherwise the cache is CPU-resident and hits pay the software search
	// cost of the selected algorithm (Fig. 17 mode).
	Offloaded bool
	Search    SearchAlgo

	// MaxIdleNs enables idle expiry (0 disables); sweeps run every
	// ExpireEveryNs (default 1 s).
	MaxIdleNs     int64
	ExpireEveryNs int64

	// SampleEveryNs emits a hit-rate time series point per interval
	// (0 disables) — Fig. 18.
	SampleEveryNs int64

	// Cores spreads slowpath work across CPU cores by flow RSS hash
	// (default 1) — Fig. 19.
	Cores int

	// LineRateGbps caps the throughput model (default 100, the paper's
	// prototype).
	LineRateGbps float64

	Model CostModel
}

func (c Config) withDefaults() Config {
	if c.Model.CPUGHz == 0 {
		c.Model = DefaultCostModel()
	}
	if c.Cores <= 0 {
		c.Cores = 1
	}
	if c.MaxIdleNs > 0 && c.ExpireEveryNs <= 0 {
		c.ExpireEveryNs = 1_000_000_000
	}
	if c.LineRateGbps <= 0 {
		c.LineRateGbps = 100
	}
	if c.Kind == Gigaflow {
		if c.NumTables <= 0 {
			c.NumTables = 4
		}
		if c.TableCapacity <= 0 {
			c.TableCapacity = 8192
		}
	} else if c.MegaflowCapacity <= 0 {
		c.MegaflowCapacity = 32768
	}
	return c
}

// Label renders the configuration as the paper labels it, e.g.
// "gigaflow(4x8192)/TSS".
func (c Config) Label() string {
	if c.Kind == Gigaflow {
		return fmt.Sprintf("gigaflow(%dx%d)/%s", c.NumTables, c.TableCapacity, c.Search)
	}
	return fmt.Sprintf("megaflow(%d)/%s", c.MegaflowCapacity, c.Search)
}

// CoreLoad is one CPU core's slowpath share (Fig. 19).
type CoreLoad struct {
	Misses uint64
	Cycles int64
}

// Result is the outcome of one run.
type Result struct {
	Config  Config
	Packets uint64
	Hits    uint64
	Misses  uint64
	// Stalls counts Gigaflow misses that matched a partial entry chain.
	Stalls uint64
	// Entries/Capacity describe final cache occupancy (Fig. 10).
	Entries  int
	Capacity int
	// Coverage is the rule-space coverage at the end of the run (Table 2);
	// for Megaflow it equals Entries.
	Coverage uint64
	// MeanSharing is the average number of traversals installed per cache
	// entry (Fig. 11); 1.0 for Megaflow by construction.
	MeanSharing float64
	// InsertFailures counts traversals that could not be cached.
	InsertFailures uint64
	// Latency is the per-packet end-to-end latency distribution (Fig. 12).
	Latency stats.Histogram
	// Cycles decomposes slowpath CPU work (Fig. 13).
	Cycles CycleBreakdown
	// PerCore is the slowpath load per CPU core (Fig. 19).
	PerCore []CoreLoad
	// Series is the windowed hit-rate time series (Fig. 18).
	Series stats.Series
	// Throughput is the aggregate-forwarding model derived from the run.
	Throughput Throughput
}

// HitRate returns Hits/Packets.
func (r *Result) HitRate() float64 {
	if r.Packets == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Packets)
}

// Run drives the trace through a fresh VSwitch of the configured kind —
// the datapath kernel the service runs — one packet per Process call on
// the trace's virtual clock, with no microflow tier, conntrack or
// recorder. The cost model prices each packet from deltas of counters the
// datapath keeps anyway (see meter).
func Run(w *pipebench.Workload, trace []traffic.Packet, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if len(trace) == 0 {
		return nil, fmt.Errorf("sim: empty trace")
	}
	res := &Result{Config: cfg, Capacity: cfg.MegaflowCapacity, PerCore: make([]CoreLoad, cfg.Cores)}
	res.Series.Name = cfg.Label()

	var opts []gigaflow.VSwitchOption
	if cfg.MaxIdleNs > 0 {
		opts = append(opts, gigaflow.WithMaxIdle(cfg.MaxIdleNs))
	}
	if cfg.Kind == Megaflow {
		opts = append(opts, gigaflow.WithMegaflowBackend(cfg.MegaflowCapacity))
	}
	v := gigaflow.NewVSwitch(w.Pipeline, gigaflow.CacheConfig{NumTables: cfg.NumTables,
		TableCapacity: cfg.TableCapacity, Scheme: cfg.Scheme, Seed: cfg.Seed}, opts...)
	mt := newMeter(v, cfg)

	m := cfg.Model
	var lastExpire, lastSample int64
	var windowHits, windowTotal uint64
	var totalBytes uint64

	for i := range trace {
		pkt := &trace[i]
		now := pkt.Time
		totalBytes += uint64(pkt.Size)

		if cfg.MaxIdleNs > 0 && now-lastExpire >= cfg.ExpireEveryNs {
			lastExpire = now
			v.ExpireIdle(now)
		}
		r, err := v.Process(pkt.Key, now)
		if err != nil {
			return nil, fmt.Errorf("sim: %w", err)
		}

		res.Packets++
		latency := m.HWHitNs
		if !cfg.Offloaded {
			latency = m.SwCacheBaseNs + m.CyclesToNs(mt.searchCycles(pkt.Key))
		}

		if r.CacheHit {
			res.Hits++
			windowHits++
		} else {
			// Slowpath: full pipeline traversal, cache-rule generation,
			// installation. Charged to the flow's RSS core — the
			// service's shard hash.
			res.Misses++
			br, failed := mt.slowpath(pkt.Key)
			if failed {
				res.InsertFailures++
			}
			res.Cycles.Add(br)
			core := &res.PerCore[pkt.Key.SymHash()%uint64(cfg.Cores)]
			core.Misses++
			core.Cycles += br.Total()
			latency += m.SlowBaseNs + m.CyclesToNs(br.Total())
			if cfg.Offloaded {
				latency += m.PuntNs
			}
		}
		res.Latency.Add(float64(latency))

		windowTotal++
		if cfg.SampleEveryNs > 0 && now-lastSample >= cfg.SampleEveryNs {
			res.Series.Add(float64(now)/1e9, float64(windowHits)/float64(windowTotal))
			windowHits, windowTotal = 0, 0
			lastSample = now
		}
	}

	res.Entries, res.Coverage, res.MeanSharing = v.CacheEntries(), v.Coverage(), 1
	if gf := v.Cache(); gf != nil {
		res.Capacity, res.Stalls = gf.Capacity(), gf.Stats().Stalls
		if n := gf.Len(); n > 0 {
			var installs uint64
			for _, e := range gf.AllEntries() {
				installs += e.Installs
			}
			res.MeanSharing = float64(installs) / float64(n)
		}
	}
	res.Throughput = computeThroughput(res, totalBytes, cfg.LineRateGbps, m)
	return res, nil
}

// meter is the cost model's view of the datapath: it prices one packet
// at a time from deltas of counters the datapath keeps anyway — the main
// cache's search probes, the pipeline classifiers' lookups and tuple
// probes, and the install counters — so a figure costs exactly the work
// VSwitch.Process did.
type meter struct {
	v    *gigaflow.VSwitch
	m    CostModel
	gfNM bool     // NM search over a CPU-resident Gigaflow cache
	nm   *nmIndex // NM cost index over a CPU-resident Megaflow cache

	// Counter values after the previous packet: main-cache TSS tuple
	// probes and LTM tables consulted; pipeline table visits and tuple
	// probes; LTM rules composed (fresh or shared) and failed installs.
	cacheProbes, ltmTables, pipeLookups, pipeProbes, rules, installErrs uint64
}

func newMeter(v *gigaflow.VSwitch, cfg Config) *meter {
	nm := cfg.Search == NM && !cfg.Offloaded
	mt := &meter{v: v, m: cfg.Model, gfNM: nm && v.Cache() != nil}
	if nm && v.Megaflow() != nil {
		mt.nm = newNMIndex()
	}
	mt.pipeLookups, mt.pipeProbes = v.Pipeline().LookupStats()
	return mt
}

// searchCycles is the software search cost of the packet's main-cache
// lookup, for a CPU-resident cache.
func (mt *meter) searchCycles(k flow.Key) int64 {
	m := mt.m
	if gf := mt.v.Cache(); gf != nil {
		st := gf.Stats()
		tables := int64(st.TablesProbed - mt.ltmTables)
		cycles := int64(st.TupleProbes-mt.cacheProbes) * m.CyclesPerTupleProbe
		mt.cacheProbes, mt.ltmTables = st.TupleProbes, st.TablesProbed
		if mt.gfNM {
			// NM replaces each LTM table's scan with model work;
			// tables with fewer live tuples than that stay on TSS.
			if nmCycles := tables * gfNMCostPerTable * m.CyclesPerNMUnit; nmCycles < cycles {
				cycles = nmCycles
			}
		}
		return cycles
	}
	mf := mt.v.Megaflow()
	cycles := int64(mf.TupleProbes()-mt.cacheProbes) * m.CyclesPerTupleProbe
	mt.cacheProbes = mf.TupleProbes()
	if mt.nm != nil {
		// NuevoMatch is a hybrid: rules live in learned iSets only where
		// that beats scanning them in the TSS remainder, so its cost
		// never exceeds plain TSS.
		rmiUnits, deltaProbes := mt.nm.lookupCost(k)
		if nmCycles := rmiUnits*m.CyclesPerNMUnit + deltaProbes*m.CyclesPerTupleProbe; nmCycles < cycles {
			cycles = nmCycles
		}
	}
	return cycles
}

// slowpath prices the packet's miss: the traversal, the Gigaflow
// partitioning, and rule generation. failed reports an install the cache
// rejected.
func (mt *meter) slowpath(k flow.Key) (br CycleBreakdown, failed bool) {
	m := mt.m
	lookups, probes := mt.v.Pipeline().LookupStats()
	n := int64(lookups - mt.pipeLookups) // traversal length
	br.Pipeline = int64(probes-mt.pipeProbes)*m.CyclesPerTupleProbe + n*m.CyclesPerTableVisit
	mt.pipeLookups, mt.pipeProbes = lookups, probes
	errs := mt.v.Stats().InstallErrs
	failed, mt.installErrs = errs != mt.installErrs, errs

	if gf := mt.v.Cache(); gf != nil {
		st := gf.Stats()
		rules := st.EntriesCreated + st.SharedReuse
		br.Partition = n * n * int64(gf.NumTables()) * m.CyclesPerDPCell
		br.RuleGen = int64(rules-mt.rules) * m.CyclesPerRuleGen
		mt.rules = rules
		return br, failed
	}
	br.RuleGen = m.CyclesPerRuleGen
	if mf := mt.v.Megaflow(); mt.nm != nil && !failed {
		// The packet's own entry is the one just installed. Peek probes
		// the classifier, which is no packet's search cost.
		if e, ok := mf.Peek(k); ok {
			mt.nm.noteInsert(e, mf)
		}
		mt.cacheProbes = mf.TupleProbes()
	}
	return br, failed
}

// Command perfbench is the repository's frame-to-verdict benchmark. It
// pushes raw Ethernet frames through service.SubmitFrameBatch for one
// workload, checks every verdict against an oracle, and prints every
// metric by name with its unit; the last line of standard output is a
// JSON summary. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload pipebench-psc --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that decomposes them per layer. README.md describes the
// workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"

	"gigaflow"
	"gigaflow/service"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    float64
	spans    string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object printed as the last line of output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints one run's metrics and keeps them for the summary, which
// carries the ones BENCHMARK.json lists for the mode.
type report struct {
	out     io.Writer
	metrics map[string]metric
	json    map[string]bool
}

func newReport(out io.Writer, jsonNames []string) *report {
	r := &report{out: out, metrics: map[string]metric{}, json: map[string]bool{}}
	for _, n := range jsonNames {
		r.json[n] = true
	}
	return r
}

// add records and prints a metric; better is "higher", "lower" or "".
func (r *report) add(name string, v float64, unit, better, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	dir := ""
	if better != "" {
		dir = " (" + better + " is better)"
	}
	if note != "" {
		note = "  [" + note + "]"
	}
	fmt.Fprintf(r.out, "metric %-34s %14.6g %s%s%s\n", name, v, unit, dir, note)
}

// summaryMetrics returns the metrics BENCHMARK.json names, failing when
// one was never measured.
func (r *report) summaryMetrics() (map[string]metric, error) {
	out := map[string]metric{}
	for n := range r.json {
		m, ok := r.metrics[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = m
	}
	return out, nil
}

// endToEnd and perLayer are the metric names BENCHMARK.json lists.
var endToEnd = []string{
	"throughput_mpps", "cpu_ns_per_pkt", "batch_p50_us", "batch_p90_us", "mem_mb", "setup_s",
}

var perLayer = []string{
	"hit_rate", "allocs_per_pkt",
	"service.self_ns_per_pkt", "service.shard_skew",
	"packet.rss_ns", "packet.decode_ns", "packet.rss_fallback_ratio",
	"vswitch.batch_ns_per_pkt", "vswitch.slowpath_ns",
	"vswitch.microflow_time_share", "vswitch.maincache_time_share", "vswitch.slowpath_time_share",
	"microflow.hit_ratio", "gigaflow.hit_ratio", "gigaflow.entries", "gigaflow.insert_ns",
	"gigaflow.installs_per_kpkt", "gigaflow.install_errs",
	"pipeline.traversals_per_kpkt", "pipeline.traversal_ns",
	"conntrack.track_ns", "conntrack.created_per_kpkt", "conntrack.evicted_per_kpkt", "conntrack.live",
	"conntrack.fastpath_ratio", "conntrack.guard_fails", "conntrack.invalidated",
	"upcall.flows_per_kpkt", "upcall.dedup_ratio", "upcall.overflows", "upcall.stale", "upcall.batch_fill",
	"trace.overhead_ratio",
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "measured time per run, in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1, "workload size factor (below 1 only for tests)")
	fs.StringVar(&o.spans, "spans", "", "directory for the traced run's span file (none when empty)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds < 1 || o.scale <= 0 {
		return o, errors.New("--seconds must be at least 1 and --scale positive")
	}
	o.trace = trace == 1
	return o, nil
}

// run executes one benchmark invocation and returns the exit code: 0
// when every output checked out, 1 when a check failed, 2 on a usage or
// set-up error (no summary is printed then).
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	sum, err := bench(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	buf, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(buf))
	if !sum.Correct {
		return 1
	}
	return 0
}

// bench generates the workload, measures it and returns the summary.
func bench(o options, stdout, stderr io.Writer) (*summary, error) {
	load0 := loadAvg()
	w, err := newWorkload(o.workload, o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%d trace=%v scale=%g\n",
		o.workload, o.seed, o.seconds, o.trace, o.scale)
	fmt.Fprintf(stdout, "# env nproc=%d gomaxprocs=%d go=%s commit=%s load_before=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), load0)
	fmt.Fprintf(stdout, "# input %s\n", w.info)
	fmt.Fprintf(stdout, "# input generation %.3f s (diagnostic; not part of setup_s)\n", w.genTime.Seconds())
	warnLoad(stderr, load0)

	ctx := context.Background()
	jsonNames := endToEnd
	if o.trace {
		jsonNames = perLayer
	}
	rep := newReport(stdout, jsonNames)
	sum := &summary{}
	var res *measured
	if o.trace {
		res, err = tracedRun(ctx, w, o, rep, stdout)
	} else {
		res, err = measure(ctx, w, time.Duration(o.seconds)*time.Second)
		if err == nil {
			res.endToEnd(rep)
			res.counters(rep)
		}
	}
	if err != nil {
		return nil, err
	}
	res.printCounts(stdout)
	for _, e := range res.errs {
		fmt.Fprintln(stdout, "# FAIL", e)
	}
	sum.Attempted, sum.Failed = res.attempted, res.failed+int64(len(res.errs))
	sum.Correct = sum.Failed == 0
	fmt.Fprintf(stdout, "# checked %d operations, %d failed (%.4g%%)\n",
		sum.Attempted, sum.Failed, 100*float64(sum.Failed)/float64(sum.Attempted))
	load1 := loadAvg()
	fmt.Fprintf(stdout, "# env load_after=%s\n", load1)
	warnLoad(stderr, load1)
	if sum.Metrics, err = rep.summaryMetrics(); err != nil {
		return nil, err
	}
	return sum, nil
}

// measured aggregates the passes of one run.
type measured struct {
	w      *workload
	passes []*pass

	attempted, failed int64
	errs              []error // invariant and determinism violations
}

// measure runs passes of w until budget has elapsed (at least three, so
// the determinism check and the set-up median have material).
func measure(ctx context.Context, w *workload, budget time.Duration) (*measured, error) {
	m := &measured{w: w}
	start := time.Now()
	for len(m.passes) < 3 || time.Since(start) < budget {
		p, err := runPass(ctx, w, nil)
		if err != nil {
			return nil, err
		}
		m.add(p)
	}
	return m, nil
}

// add folds one pass in, checking its invariants and that its ledger
// repeats the first pass's exactly.
func (m *measured) add(p *pass) {
	m.attempted += p.attempted
	m.failed += p.failed
	m.errs = append(m.errs, p.invariants(m.w)...)
	if len(m.passes) > 0 {
		want := m.passes[0].counts(m.w)
		for i, c := range p.counts(m.w) {
			if c != want[i] {
				m.errs = append(m.errs, fmt.Errorf("pass %d: count %s = %d, pass 0 had %d (not deterministic)",
					len(m.passes), c.name, c.v, want[i].v))
			}
		}
	}
	m.passes = append(m.passes, p)
}

// sums totals the measured phases of every pass.
func (m *measured) sums() (frames, busy int64, mallocs uint64) {
	for _, p := range m.passes {
		frames += p.frames
		busy += p.busyNs
		mallocs += p.mallocs
	}
	return
}

func (m *measured) throughput() float64 {
	frames, busy, _ := m.sums()
	return float64(frames) / float64(busy) * 1e3
}

// windowCalls is the number of measured calls per window; a window's
// p99 then has at least ten samples beyond it, its p90 a hundred.
const windowCalls = 1024

// endToEnd reports the user-visible metrics. The timing metrics are
// taken per window of consecutive calls and reported as the median over
// every window of every pass: other tenants of the machine slow the
// program in bursts, and a median over windows a fraction of a second
// long is not moved by a burst the way a whole-run figure is. mem_mb and
// setup_s are taken per pass.
func (m *measured) endToEnd(rep *report) {
	var tput, cpu, p50, p90, p99, mems, setups []float64
	var ns []int64
	samples := 0
	for _, p := range m.passes {
		nw := max(1, len(p.calls)/windowCalls)
		for i := 0; i < nw; i++ {
			win := p.calls[i*len(p.calls)/nw : (i+1)*len(p.calls)/nw]
			ns = ns[:0]
			var wall, cpuNs, frames int64
			for _, c := range win {
				ns = append(ns, c.ns)
				wall += c.ns
				cpuNs += c.cpu
				frames += int64(c.frames)
			}
			slices.Sort(ns)
			samples += len(ns)
			tput = append(tput, float64(frames)/float64(wall)*1e3)
			cpu = append(cpu, float64(cpuNs)/float64(frames))
			q := func(f float64) float64 { return float64(ns[int(f*float64(len(ns)))]) / 1e3 }
			p50 = append(p50, q(0.50))
			p90 = append(p90, q(0.90))
			p99 = append(p99, q(0.99))
		}
		mems = append(mems, float64(p.memBytes)/1e6)
		setups = append(setups, float64(p.setupNs)/1e9)
	}
	frames, _, _ := m.sums()
	note := fmt.Sprintf("median of %d windows of ~%d calls; %d passes, %d frames", len(tput), windowCalls, len(m.passes), frames)
	rep.add("throughput_mpps", median(tput), "Mpps", "higher", note)
	rep.add("cpu_ns_per_pkt", median(cpu), "ns", "lower", "process user+sys inside the calls")
	rep.add("batch_p50_us", median(p50), "us", "lower", fmt.Sprintf("%d samples", samples))
	rep.add("batch_p90_us", median(p90), "us", "lower", "")
	rep.add("batch_p99_us", median(p99), "us", "lower", "not in BENCHMARK.json: too unsteady to bound")
	rep.add("mem_mb", median(mems), "MB", "lower", "median over passes")
	rep.add("setup_s", median(setups), "s", "lower", fmt.Sprintf("median of %d set-ups", len(setups)))
}

// printCounts prints the first pass's deterministic ledger.
func (m *measured) printCounts(out io.Writer) {
	for _, c := range m.passes[0].counts(m.w) {
		fmt.Fprintf(out, "count %-20s %d\n", c.name, c.v)
	}
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// commit names the source revision the binary was built from.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// loadAvg returns the 1/5/15-minute load averages.
func loadAvg() string {
	var si syscall.Sysinfo_t
	if err := syscall.Sysinfo(&si); err != nil {
		return "unknown"
	}
	const scale = 1 << 16
	return fmt.Sprintf("%.2f,%.2f,%.2f",
		float64(si.Loads[0])/scale, float64(si.Loads[1])/scale, float64(si.Loads[2])/scale)
}

// warnLoad warns when the 1-minute load exceeds the CPU count: the
// machine is shared and the figures will drift.
func warnLoad(stderr io.Writer, load string) {
	var l1 float64
	if _, err := fmt.Sscanf(load, "%f", &l1); err == nil && l1 > float64(runtime.NumCPU()) {
		fmt.Fprintf(stderr, "perfbench: warning: load average %s exceeds nproc %d; figures are unreliable\n",
			load, runtime.NumCPU())
	}
}

// counters reports the per-layer metrics read off the service's own
// counters over the measured phases.
func (m *measured) counters(rep *report) {
	var d gigaflow.VSwitchStats
	var created, evicted, live uint64
	var up service.UpcallStats
	var entries int
	var skew float64
	frames, _, mallocs := m.sums()
	for _, p := range m.passes {
		d = addStats(d, p.delta)
		for i, s := range p.shards {
			created += s.CtCreated - p.warmShards[i].CtCreated
			evicted += s.CtEvicted - p.warmShards[i].CtEvicted
		}
		up.Flows += p.upcall.Flows
		up.Deduped += p.upcall.Deduped
		up.Overflows += p.upcall.Overflows
		up.Stale += p.upcall.Stale
		up.Drained += p.upcall.Drained
		up.Batches += p.upcall.Batches
	}
	last := m.passes[len(m.passes)-1]
	entries = last.cache
	var maxP, sumP uint64
	for _, s := range last.shards {
		live += uint64(s.CtLive)
		maxP = max(maxP, s.Packets)
		sumP += s.Packets
	}
	skew = float64(maxP) / (float64(sumP) / float64(len(last.shards)))
	pk := float64(d.Packets)
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	rep.add("hit_rate", ratio(float64(d.MicroflowHits+d.CacheHits), pk), "ratio", "higher", "microflow + main-cache hits / packets")
	rep.add("allocs_per_pkt", float64(mallocs)/float64(frames), "count", "lower", fmt.Sprintf("%d mallocs", mallocs))
	rep.add("service.shard_skew", skew, "ratio", "lower", "max / mean shard packets")
	rep.add("microflow.hit_ratio", ratio(float64(d.MicroflowHits), pk), "ratio", "higher", "")
	rep.add("gigaflow.hit_ratio", ratio(float64(d.CacheHits), float64(d.CacheHits+d.CacheMisses)), "ratio", "higher",
		fmt.Sprintf("%d main-cache lookups", d.CacheHits+d.CacheMisses))
	rep.add("gigaflow.entries", float64(entries), "count", "", "at the end of a pass")
	rep.add("gigaflow.installs_per_kpkt", 1000*ratio(float64(d.Installs), pk), "count", "", "")
	rep.add("gigaflow.install_errs", float64(d.InstallErrs), "count", "lower", "")
	rep.add("pipeline.traversals_per_kpkt", 1000*ratio(float64(d.Slowpath), pk), "count", "lower", "")
	rep.add("conntrack.created_per_kpkt", 1000*ratio(float64(created), pk), "count", "", "")
	rep.add("conntrack.evicted_per_kpkt", 1000*ratio(float64(evicted), pk), "count", "", "")
	rep.add("conntrack.live", float64(live), "count", "", "at the end of a pass")
	rep.add("conntrack.fastpath_ratio", ratio(float64(d.CtFastpath), pk), "ratio", "higher", "")
	rep.add("conntrack.guard_fails", float64(d.CtGuardFails), "count", "", "")
	rep.add("conntrack.invalidated", float64(d.CtInvalidated), "count", "", "")
	rep.add("upcall.flows_per_kpkt", 1000*ratio(float64(up.Flows), pk), "count", "", "")
	rep.add("upcall.dedup_ratio", ratio(float64(up.Deduped), float64(up.Flows+up.Deduped)), "ratio", "", "parked packets that joined a pending flow")
	rep.add("upcall.overflows", float64(up.Overflows), "count", "lower", "")
	rep.add("upcall.stale", float64(up.Stale), "count", "lower", "")
	rep.add("upcall.batch_fill", ratio(float64(up.Drained), float64(up.Batches)), "count", "", "misses per engine batch")
}

func addStats(a, b gigaflow.VSwitchStats) gigaflow.VSwitchStats {
	return gigaflow.VSwitchStats{
		Packets:       a.Packets + b.Packets,
		MicroflowHits: a.MicroflowHits + b.MicroflowHits,
		CacheHits:     a.CacheHits + b.CacheHits,
		CacheMisses:   a.CacheMisses + b.CacheMisses,
		Slowpath:      a.Slowpath + b.Slowpath,
		Installs:      a.Installs + b.Installs,
		InstallErrs:   a.InstallErrs + b.InstallErrs,
		CtFastpath:    a.CtFastpath + b.CtFastpath,
		CtGuardFails:  a.CtGuardFails + b.CtGuardFails,
		CtInvalidated: a.CtInvalidated + b.CtInvalidated,
	}
}

package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gigaflow"
	"gigaflow/internal/pipelines"
	"gigaflow/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current code")

// TestGoldenResults pins every Result field of a small grid of runs —
// both cache kinds, both search algorithms, offloaded and CPU-resident,
// idle expiry with hit-rate sampling, multi-core RSS spreading — plus
// the revalidation experiment, against testdata/golden.txt. The file was
// captured from the simulator's earlier private lookup/miss/install loop,
// before Run moved onto the VSwitch datapath kernel, so a match shows the
// two datapaths agree bit for bit. The one recaptured field is PerCore
// of the multi-core runs: the core of a miss is now the datapath's shard
// hash (Key.SymHash, the service's shardOfKey base rule) instead of the
// old private FNV hash, which moves misses between cores but leaves
// their sum and every other field unchanged.
//
// Regenerate with `go test ./internal/sim -run TestGoldenResults -update`
// only for an intended change to what the figures measure.
func TestGoldenResults(t *testing.T) {
	psc := workload(t, pipelines.PSC, 300)
	ofd := workload(t, pipelines.OFD, 300)
	pscTrace := BuildTrace(psc, 3000, traffic.HighLocality, 3)
	ofdTrace := BuildTrace(ofd, 2500, traffic.LowLocality, 5)

	const sec = 1_000_000_000
	runs := []struct {
		name string
		pofd bool // OFD low-locality trace instead of PSC high-locality
		cfg  Config
	}{
		{name: "gf-tss-offload", cfg: Config{Kind: Gigaflow, NumTables: 4, TableCapacity: 48, Offloaded: true}},
		{name: "gf-tss-cpu", pofd: true, cfg: Config{Kind: Gigaflow, NumTables: 3, TableCapacity: 96}},
		{name: "gf-nm-cpu", cfg: Config{Kind: Gigaflow, NumTables: 4, TableCapacity: 48, Search: NM}},
		{name: "gf-random-scheme", pofd: true, cfg: Config{Kind: Gigaflow, NumTables: 4, TableCapacity: 96,
			Scheme: gigaflow.SchemeRandom, Seed: 5, Offloaded: true}},
		{name: "mf-tss-offload", cfg: Config{Kind: Megaflow, MegaflowCapacity: 96, Offloaded: true}},
		{name: "mf-tss-cpu", pofd: true, cfg: Config{Kind: Megaflow, MegaflowCapacity: 160}},
		{name: "mf-nm-cpu", cfg: Config{Kind: Megaflow, MegaflowCapacity: 96, Search: NM}},
		{name: "gf-idle-sample", cfg: Config{Kind: Gigaflow, NumTables: 4, TableCapacity: 128, Offloaded: true,
			MaxIdleNs: 5 * sec, ExpireEveryNs: sec, SampleEveryNs: 5 * sec}},
		{name: "mf-idle-sample", cfg: Config{Kind: Megaflow, MegaflowCapacity: 512, Offloaded: true,
			MaxIdleNs: 5 * sec, ExpireEveryNs: sec, SampleEveryNs: 5 * sec}},
		{name: "gf-cores4", pofd: true, cfg: Config{Kind: Gigaflow, NumTables: 4, TableCapacity: 96, Offloaded: true, Cores: 4}},
		{name: "mf-cores4", pofd: true, cfg: Config{Kind: Megaflow, MegaflowCapacity: 256, Offloaded: true, Cores: 4}},
	}

	var b strings.Builder
	for _, r := range runs {
		w, trace := psc, pscTrace
		if r.pofd {
			w, trace = ofd, ofdTrace
		}
		res, err := Run(w, trace, r.cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		writeResult(&b, r.name, res)
	}
	// Revalidation perturbs the pipeline, so it runs last.
	gf, mf, err := RevalidationExperiment(psc, 2000, 4, 128, 512, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "== reval\ngf: %+v\nmf: %+v\n", gf, mf)

	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	section := ""
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if strings.HasPrefix(w, "== ") {
			section = w
		}
		if g != w {
			t.Errorf("%s line %d:\n got: %s\nwant: %s", section, i+1, g, w)
		}
	}
}

// writeResult renders every Result field, one per line, with floats in
// their shortest exact form so any bit of drift shows.
func writeResult(b *strings.Builder, name string, r *Result) {
	fmt.Fprintf(b, "== %s\n", name)
	fmt.Fprintf(b, "config: %+v\n", r.Config)
	fmt.Fprintf(b, "packets=%d hits=%d misses=%d stalls=%d\n", r.Packets, r.Hits, r.Misses, r.Stalls)
	fmt.Fprintf(b, "entries=%d capacity=%d coverage=%d sharing=%v insertfail=%d\n",
		r.Entries, r.Capacity, r.Coverage, r.MeanSharing, r.InsertFailures)
	fmt.Fprintf(b, "latency: n=%d mean=%v std=%v max=%v sum=%v\n",
		r.Latency.N(), r.Latency.Mean(), r.Latency.Std(), r.Latency.Max(), r.Latency.Sum())
	var buckets []string
	for i, c := range r.Latency.Buckets() {
		if c != 0 {
			buckets = append(buckets, fmt.Sprintf("%d:%d", i, c))
		}
	}
	fmt.Fprintf(b, "latency buckets: %s\n", strings.Join(buckets, " "))
	fmt.Fprintf(b, "cycles: %+v\n", r.Cycles)
	fmt.Fprintf(b, "percore: %+v\n", r.PerCore)
	fmt.Fprintf(b, "series: %s %+v\n", r.Series.Name, r.Series.Points)
	fmt.Fprintf(b, "throughput: %+v\n", r.Throughput)
}

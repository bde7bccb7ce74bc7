package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"sort"
	"strings"
	"testing"

	"gigaflow/service"
)

// tinyRun runs one benchmark invocation at test scale and returns its
// standard output and exit code.
func tinyRun(t *testing.T, workload, trace string) (string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "1",
		"--trace", trace, "--scale", "0.02"}, &out, &errOut)
	if errOut.Len() > 0 {
		t.Logf("%s trace=%s stderr: %s", workload, trace, errOut.String())
	}
	return out.String(), code
}

// lastJSON decodes the summary line, rejecting unknown keys.
func lastJSON(t *testing.T, out string) summary {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var s summary
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("last line is not the summary: %v\n%s", err, out)
	}
	return s
}

func metricNames(m map[string]metric) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSchema runs every workload at tiny scale, untraced and traced, and
// checks the summary's shape: the four keys, a correct run, and exactly
// the metrics BENCHMARK.json lists for the mode.
func TestSchema(t *testing.T) {
	for _, wl := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			out, code := tinyRun(t, wl, trace)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d\n%s", wl, trace, code, out)
			}
			s := lastJSON(t, out)
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s",
					wl, trace, s.Correct, s.Attempted, s.Failed, out)
			}
			want := slices.Clone(endToEnd)
			if trace == "1" {
				want = slices.Clone(perLayer)
			}
			sort.Strings(want)
			if got := metricNames(s.Metrics); !slices.Equal(got, want) {
				t.Errorf("%s trace=%s: metrics %v, want %v", wl, trace, got, want)
			}
			for n, m := range s.Metrics {
				if m.Unit == "" {
					t.Errorf("%s trace=%s: metric %s has no unit", wl, trace, n)
				}
			}
		}
	}
}

// TestDeterministicCounts checks that two runs of one seed report the
// same ledger: tier hits, traversals, installs, conntrack and per-shard
// counts.
func TestDeterministicCounts(t *testing.T) {
	counts := func(out string) []string {
		var c []string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "count ") {
				c = append(c, l)
			}
		}
		return c
	}
	for _, wl := range workloadNames {
		a, _ := tinyRun(t, wl, "0")
		b, _ := tinyRun(t, wl, "0")
		ca, cb := counts(a), counts(b)
		if len(ca) == 0 || !slices.Equal(ca, cb) {
			t.Errorf("%s: counts differ between runs of one seed:\n%v\n%v", wl, ca, cb)
		}
	}
}

// TestHarnessAllocatesNothing checks that the work the closed loop does
// between calls — picking the next frames, checking results, building
// dnslb replies — allocates nothing, so allocs_per_pkt is the program's.
func TestHarnessAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	for _, wl := range []string{"pipebench-psc", "dnslb-churn"} {
		w, err := newWorkload(wl, 3, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := service.New(w.pipe, w.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Start(ctx); err != nil {
			t.Fatal(err)
		}
		b := service.NewBatch(batchSize)
		for i := 0; i < 2; i++ {
			if err := svc.SubmitFrameBatch(ctx, w.src.frames(i), b); err != nil {
				t.Fatal(err)
			}
			if f := w.src.check(i, b); f != 0 {
				t.Fatalf("%s batch %d: %d failed", wl, i, f)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			_ = w.src.frames(0)
			_ = w.src.check(0, b)
		})
		svc.Close()
		if allocs != 0 {
			t.Errorf("%s: harness allocates %.1f times per batch", wl, allocs)
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names the workloads and
// metrics this program runs and reports.
func TestBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(v []struct{ Name string }) []string {
		var out []string
		for _, x := range v {
			out = append(out, x.Name)
		}
		return out
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(spec.Workloads), workloadNames},
		{"end_to_end", names(spec.EndToEnd), endToEnd},
		{"per_layer", names(spec.PerLayer), perLayer},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, perfbench has %v", c.what, c.got, c.want)
		}
	}
}

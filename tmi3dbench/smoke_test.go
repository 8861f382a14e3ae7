package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeScale is a scale with recorded digests small enough for a test.
const smokeScale = 0.05

func smokeOptions(t *testing.T, workload string, corrupt bool) (*options, *bytes.Buffer) {
	var buf bytes.Buffer
	return &options{
		workload: workload, seed: 1, seconds: 0.5, scale: smokeScale,
		workdir: t.TempDir(), srcRoot: "..", setups: 1, corrupt: corrupt, out: &buf,
	}, &buf
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return r
}

// Each workload runs clean at a tiny scale, prints every end-to-end metric,
// and fails (non-nil error, fail_frac > 0) when one payload is wrong.
func TestSmokeWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real flows")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			o, buf := smokeOptions(t, w.name, false)
			if err := runTimed(o, w); err != nil {
				t.Fatalf("clean run failed: %v\n%s", err, buf)
			}
			r := lastLine(t, buf.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("clean run result %+v\n%s", r, buf)
			}
			sameMetrics(t, r.Metrics, benchmarkNames(t, "end_to_end"))
			for name, v := range r.Metrics {
				if !(v.Value > 0) {
					t.Errorf("metric %s = %g, want a positive value", name, v.Value)
				}
			}
			for _, want := range []string{"env nproc=", "latency_p99_s", "fail_frac", "count report.bytes"} {
				if !strings.Contains(buf.String(), want) {
					t.Errorf("output lacks %q", want)
				}
			}

			o, buf = smokeOptions(t, w.name, true)
			if err := runTimed(o, w); err == nil {
				t.Fatalf("a wrong payload passed the checks\n%s", buf)
			}
			r = lastLine(t, buf.String())
			if r.Correct || r.Failed == 0 {
				t.Errorf("injected wrong payload: result %+v, want fail_frac > 0", r)
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real flows")
	}
	o, buf := smokeOptions(t, "study-matrix", false)
	if err := runTraced(o); err != nil {
		t.Fatalf("traced suite failed: %v\n%s", err, buf)
	}
	r := lastLine(t, buf.String())
	if !r.Correct {
		t.Errorf("traced suite result %+v", r)
	}
	sameMetrics(t, r.Metrics, benchmarkNames(t, "per_layer"))
	// The stage spans account for each config's wall time.
	if v := r.Metrics["trace.remainder_frac"].Value; v < 0 || v > 0.05 {
		t.Errorf("trace.remainder_frac = %g, want the spans to cover the flow", v)
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares in a list.
func benchmarkNames(t *testing.T, list string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(b[list], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// sameMetrics checks a result line carries exactly the declared metrics, in
// the declared units.
func sameMetrics(t *testing.T, got map[string]metricValue, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		if v, ok := got[name]; !ok {
			t.Errorf("declared metric %s missing", name)
		} else if v.Unit != unit {
			t.Errorf("metric %s in %s, declared %s", name, v.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

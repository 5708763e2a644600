package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the harness must agree
// with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesHarness pins BENCHMARK.json and design.json to
// the metrics and workloads the harness actually reports.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	b := loadBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("BENCHMARK.json workloads %v, harness has %v", names, workloadNames)
	}
	same := func(kind string, file []metricDef, harness []metricDef) {
		if len(file) != len(harness) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, harness reports %d", kind, len(file), len(harness))
			return
		}
		for i := range file {
			if file[i] != harness[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %v, harness %v", kind, i, file[i], harness[i])
			}
		}
	}
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	same("end_to_end", e2e, endToEnd)
	same("per_layer", layers, perLayer)

	raw, err := os.ReadFile("design.json")
	if err != nil {
		t.Fatal(err)
	}
	var design struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		PerLayer  map[string]struct {
			MeasuredBy string   `json:"measured_by"`
			Moves      []string `json:"moves"`
			Workloads  []string `json:"on"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &design); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadNames {
		if _, ok := design.Workloads[w]; !ok {
			t.Errorf("design.json does not describe workload %s", w)
		}
	}
	isE2E := map[string]bool{}
	for _, m := range endToEnd {
		isE2E[m.name] = true
	}
	for _, m := range perLayer {
		d, ok := design.PerLayer[m.name]
		if !ok || d.MeasuredBy == "" || len(d.Moves) == 0 || len(d.Workloads) == 0 {
			t.Errorf("design.json does not map %s to what measures it, what it moves and where", m.name)
			continue
		}
		for _, e := range d.Moves {
			if !isE2E[e] {
				t.Errorf("design.json: %s moves unknown end-to-end metric %q", m.name, e)
			}
		}
		for _, w := range d.Workloads {
			if _, ok := design.Workloads[w]; !ok {
				t.Errorf("design.json: %s names unknown workload %q", m.name, w)
			}
		}
	}
}

// buildHammerctl builds the server under test into a temporary directory.
func buildHammerctl(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hammerctl")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/hammerctl")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build hammerctl: %v\n%s", err, out)
	}
	return bin
}

// smoke runs the harness in-process at tiny size and returns its exit code
// and the parsed last line of its output.
func smoke(t *testing.T, bin, workload string, extra ...string) (int, result, string) {
	t.Helper()
	args := append([]string{"-smoke", "-hammerctl", bin, "-work", t.TempDir(), "-workload", workload, "-seed", "3"}, extra...)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s %v: last line is not the result object: %v\nstdout:\n%s\nstderr:\n%s", workload, extra, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String() + stderr.String()
}

// TestSmokePrintsEveryMetric runs every workload at tiny size, untraced and
// traced, and checks each prints exactly its named metrics with their units
// and a correct result.
func TestSmokePrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("starts hammerctl servers")
	}
	bin := buildHammerctl(t)
	for _, w := range workloadNames {
		for trace, want := range [][]metricDef{endToEnd, perLayer} {
			code, res, log := smoke(t, bin, w, "-trace", []string{"0", "1"}[trace])
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: exit %d, result %+v\n%s", w, trace, code, res, log)
			}
			var got []string
			for name := range res.Metrics {
				got = append(got, name)
			}
			sort.Strings(got)
			var names []string
			for _, d := range want {
				names = append(names, d.name)
				m, ok := res.Metrics[d.name]
				if !ok {
					continue
				}
				if m.Unit != d.unit {
					t.Errorf("%s trace=%d: %s unit %q, want %q", w, trace, d.name, m.Unit, d.unit)
				}
			}
			sort.Strings(names)
			if strings.Join(got, ",") != strings.Join(names, ",") {
				t.Errorf("%s trace=%d: metrics %v, want %v", w, trace, got, names)
			}
			for _, d := range want {
				// cpu_ms_per_req counts whole 10 ms clock ticks, which a
				// tiny run may not fill; every other end-to-end metric is a
				// positive measurement.
				v := res.Metrics[d.name].Value
				if trace == 0 && d.name != "cpu_ms_per_req" && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, v)
				}
			}
		}
	}
}

// TestCorruptResponseIsCaught flips one digit in the responses the load
// generator reads and checks every workload's answer checks fail the run.
func TestCorruptResponseIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("starts hammerctl servers")
	}
	bin := buildHammerctl(t)
	for _, w := range workloadNames {
		code, res, log := smoke(t, bin, w, "-corrupt")
		if code == 0 || res.Correct || res.Failed == 0 {
			t.Errorf("%s: a corrupted response went unnoticed: exit %d, result %+v\n%s", w, code, res, log)
		}
	}
}

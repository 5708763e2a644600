package main

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/bitstr"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/noise"
)

// shotsPerHistogram is the paper's trial count per circuit execution.
const shotsPerHistogram = 8192

// circuit is one benchmark circuit executed on a device preset: its exact
// noisy output distribution, from which shot histograms are sampled.
type circuit struct {
	id     string
	qubits int
	noisy  *dist.Dist
}

// execute runs each instance on a device preset (round-robin over the
// presets) in the infinite-shot limit, keeping instances whose width lies in
// [minQ, maxQ].
func execute(insts []*dataset.Instance, minQ, maxQ int) []circuit {
	devs := noise.Devices()
	var out []circuit
	for _, inst := range insts {
		if inst.Qubits < minQ || inst.Qubits > maxQ {
			continue
		}
		dev := devs[len(out)%len(devs)]
		run := dataset.Execute(inst, dev, 0)
		out = append(out, circuit{id: inst.ID + "@" + dev.Name, qubits: inst.Qubits, noisy: run.Noisy})
	}
	return out
}

// perWidth keeps the first k instances of each width, so a suite's mix of
// sizes does not depend on the seed.
func perWidth(insts []*dataset.Instance, k int) []*dataset.Instance {
	seen := map[int]int{}
	var out []*dataset.Instance
	for _, inst := range insts {
		if seen[inst.Qubits] < k {
			seen[inst.Qubits]++
			out = append(out, inst)
		}
	}
	return out
}

// qaoaSuite is QAOA MaxCut at one layer on 3-regular, grid and (optionally)
// Sherrington-Kirkpatrick graphs, one instance per even width in [minQ, maxQ].
func qaoaSuite(seed int64, minQ, maxQ int, sk bool) []*dataset.Instance {
	layers := []int{1}
	var insts []*dataset.Instance
	insts = append(insts, dataset.QAOA3RegSuite(seed, minQ, maxQ, layers, 1).Instances...)
	insts = append(insts, dataset.QAOAGridSuite(seed+1, minQ, maxQ, layers, 1).Instances...)
	if sk {
		for _, inst := range dataset.QAOASKSuite(seed+2, minQ, maxQ, layers, 1).Instances {
			if inst.Qubits%2 == 0 {
				insts = append(insts, inst)
			}
		}
	}
	return insts
}

// wireCounts renders counts as the wire histogram {"0101": k, ...}.
func wireCounts(c *dist.Counts) map[string]int {
	m := make(map[string]int, c.Len())
	n := c.NumBits()
	c.Range(func(x bitstr.Bits, k int) {
		m[bitstr.Format(x, n)] = k
	})
	return m
}

// floatHistogram is the server's decoded view of a wire histogram.
func floatHistogram(m map[string]int) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = float64(v)
	}
	return out
}

// mustJSON encodes wire values the benchmark itself builds, which always
// encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("encode benchmark input: %v", err))
	}
	return b
}

// addCounts merges src into dst.
func addCounts(dst, src map[string]int) {
	for k, v := range src {
		dst[k] += v
	}
}

// sortedKeys lists a histogram's outcomes in ascending order, the order the
// wire ingest handler applies them in.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords loads an -out file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no records", path)
	}
	return out, nil
}

// medians groups the untraced runs of a set by workload and metric and
// returns each group's median.
func medians(recs []record) map[string]map[string]float64 {
	vals := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Info.Trace != 0 {
			continue
		}
		if vals[r.Info.Workload] == nil {
			vals[r.Info.Workload] = map[string][]float64{}
		}
		for name, v := range r.Result.Metrics {
			vals[r.Info.Workload][name] = append(vals[r.Info.Workload][name], v.Value)
		}
	}
	out := map[string]map[string]float64{}
	for w, ms := range vals {
		out[w] = map[string]float64{}
		for name, vs := range ms {
			out[w][name] = median(vs)
		}
	}
	return out
}

// worsening is how much worse b is than a as a share of a, for a metric
// that is better in the given direction; negative means b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per workload/metric, both sets' medians, how much
// worse the second is and the bound, and returns the exit code: 1 when a
// gap exceeds its bound or a workload's fingerprints or failure counts
// differ between runs of one seed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readRecords(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	ma, mb := medians(a), medians(b)
	code := 0
	fmt.Fprintf(w, "%-34s %14s %14s %9s %7s\n", "workload/metric", "median A", "median B", "B worse", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, oka := ma[wl.name][d.name]
			vb, okb := mb[wl.name][d.name]
			if !oka || !okb {
				continue
			}
			gap := worsening(va, vb, d.better)
			verdict := ""
			if gap > d.bound {
				verdict = "  EXCEEDS"
				code = 1
			}
			fmt.Fprintf(w, "%-34s %14.4f %14.4f %+8.2f%% %6.1f%%%s\n", wl.name+"/"+d.name, va, vb, 100*gap, 100*d.bound, verdict)
		}
	}
	// Runs of one workload and seed must agree exactly on what was placed
	// where (except under the ILP's wall-clock budget) and on what failed.
	type key struct {
		workload string
		seed     int64
		lras     int
	}
	fps, failed := map[key]map[string]bool{}, map[key]map[int]bool{}
	for _, r := range append(append([]record(nil), a...), b...) {
		k := key{r.Info.Workload, r.Info.Seed, r.Info.LRAs}
		if fps[k] == nil {
			fps[k], failed[k] = map[string]bool{}, map[int]bool{}
		}
		fps[k][r.Info.Fingerprint] = true
		failed[k][r.Result.Failed] = true
	}
	keys := make([]key, 0, len(fps))
	for k := range fps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		if keys[i].seed != keys[j].seed {
			return keys[i].seed < keys[j].seed
		}
		return keys[i].lras < keys[j].lras
	})
	for _, k := range keys {
		wl := findWorkload(k.workload)
		if len(failed[k]) > 1 {
			fmt.Fprintf(w, "%s seed %d: failure counts differ between runs\n", k.workload, k.seed)
			code = 1
		}
		if len(fps[k]) > 1 && (wl == nil || !wl.wallClockSolver) {
			fmt.Fprintf(w, "%s seed %d: %d different fingerprints\n", k.workload, k.seed, len(fps[k]))
			code = 1
		}
	}
	return code
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// spreadMain repeats one workload n times, each run a separate process,
// and prints for every metric the median, the quartiles and the quartile
// spread relative to the median. By default every run uses the same
// seed, so the spread is run-to-run noise alone, as a comparison of two
// builds on one seed sees it. With varySeed the runs use seeds seed,
// seed+1, ..., so the spread adds the differences between inputs.
// serve-http's printed p99 is reported beside the metrics.
func spreadMain(e *env, workload string, seed int64, n int, varySeed bool) error {
	values := map[string][]float64{}
	units := map[string]string{}
	attempted, failed := 0, 0
	for i := 0; i < n; i++ {
		s := seed
		if varySeed {
			s += int64(i)
		}
		cmd := exec.Command(e.selfBin, "-serve-bin", e.serveBin, "-batch-bin", e.batchBin, "-work", e.work, "-workload", workload,
			"-seed", strconv.FormatInt(s, 10), "-seconds", strconv.FormatFloat(e.seconds, 'g', -1, 64), "-trace", "0")
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("seed %d: run reported incorrect output", s)
		}
		attempted += res.Attempted
		failed += res.Failed
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		for _, line := range lines {
			var p50, p99 float64
			if _, err := fmt.Sscanf(line, "latency: p50 %f ms, p99 %f ms", &p50, &p99); err == nil {
				values["p99_ms (printed, not gated)"] = append(values["p99_ms (printed, not gated)"], p99)
				units["p99_ms (printed, not gated)"] = "ms"
			}
		}
		fmt.Fprintf(os.Stderr, "seed %d: %s\n", s, lines[len(lines)-1])
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	seeds := fmt.Sprintf("seed %d each", seed)
	if varySeed {
		seeds = fmt.Sprintf("seeds %d..%d", seed, seed+int64(n)-1)
	}
	fmt.Printf("%s: %d runs (%s), %d operations attempted, %d failed\n", workload, n, seeds, attempted, failed)
	fmt.Printf("%-28s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, name := range names {
		q1, med, q3 := quartiles(values[name])
		fmt.Printf("%-28s %12.4f %12.4f %12.4f %7.2f%%  %s\n", name, q1, med, q3, (q3-q1)/med*100, units[name])
	}
	return nil
}

// quartiles returns the first quartile, median and third quartile with
// the "exclusive" method of Python's statistics.quantiles(n=4).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		n := len(s)
		if n == 1 {
			return s[0]
		}
		m := p * float64(n+1)
		j := int(m)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (m-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

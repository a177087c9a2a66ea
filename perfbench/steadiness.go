package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// childTimeout bounds a child process: one run of the steadiness report
// or one calibration slot.
const childTimeout = 180 * time.Second

// steadiness runs the workload k times, seeds seed..seed+k-1, each in a
// fresh process so that heap state and peak RSS belong to one run, and
// prints for every end-to-end metric the median, the quartiles and the
// spread (q3-q1)/median, the figure a bound has to cover.
func steadiness(name string, seed int64, seconds, k int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		res, calLine, err := child(exe, name, s, seconds)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i+1, s, err)
		}
		for n, m := range res.Metrics {
			values[n] = append(values[n], m.Value)
			units[n] = m.Unit
		}
		fmt.Printf("# run %d seed %d:", i+1, s)
		for _, n := range []string{"wall_s", "cpu_s", "alloc_mb", "peak_rss_mb", "setup_s"} {
			fmt.Printf(" %s=%.4g", n, res.Metrics[n].Value)
		}
		fmt.Printf(" | %s\n", calLine)
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	slices.Sort(names)
	spreads := map[string]float64{}
	fmt.Printf("# %s: %d runs, seeds %d..%d\n", name, k, seed, seed+int64(k)-1)
	fmt.Printf("# %-14s %12s %12s %12s %8s  %s\n", "metric", "q1", "median", "q3", "spread", "unit")
	for _, n := range names {
		q1, med, q3 := quartiles(values[n])
		spreads[n] = ratio(q3-q1, med)
		fmt.Printf("# %-14s %12.6g %12.6g %12.6g %8.4f  %s\n", n, q1, med, q3, spreads[n], units[n])
	}
	line, err := json.Marshal(map[string]any{"workload": name, "runs": k, "spread": spreads})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// child runs one untraced run in a fresh process and parses its result.
func child(exe, name string, seed int64, seconds int) (*result, string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, "", err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, "", fmt.Errorf("parsing the result line: %w", err)
	}
	if !res.Correct {
		return nil, "", fmt.Errorf("run reported incorrect output")
	}
	cal := ""
	for _, l := range lines {
		if strings.HasPrefix(l, "# calibration:") {
			cal = strings.TrimPrefix(l, "# calibration: ")
		}
	}
	return &res, cal, nil
}

// quartiles returns q1, the median and q3 by the exclusive method of
// Python's statistics.quantiles(values, n=4), the definition the
// benchmark's bounds are checked with.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

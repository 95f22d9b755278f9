package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// benchmarkFile is the subset of BENCHMARK.json that --repeat reads.
type benchmarkFile struct {
	EndToEnd []metricBound `json:"end_to_end"`
	PerLayer []metricBound `json:"per_layer"`
}

type metricBound struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit"`
	Bound *float64 `json:"bound"`
}

// repeat runs the workload o.repeat times, each in a fresh process on
// seeds o.seed, o.seed+1, ..., and prints each metric's median,
// quartiles and interquartile spread as a share of the median, against
// the metric's bound. This is the evidence that the benchmark is
// steady; it exits nonzero if any run failed.
func repeat(o options, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	bounds := map[string]float64{}
	if js, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var bf benchmarkFile
		if err := json.Unmarshal(js, &bf); err != nil {
			fmt.Fprintf(stderr, "perfbench: BENCHMARK.json: %v\n", err)
			return 1
		}
		for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
			if m.Bound != nil {
				bounds[m.Name] = *m.Bound
			}
		}
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < o.repeat; i++ {
		seed := o.seed + int64(i)
		child := append(withoutRepeat(args), "--seed", strconv.FormatInt(seed, 10))
		cmd := exec.Command(self, child...)
		cmd.Stderr = stderr
		outb, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: run %d (seed %d): %v\n", i+1, seed, err)
			return 1
		}
		res, err := lastResult(outb)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: run %d (seed %d): %v\n", i+1, seed, err)
			return 1
		}
		for n, v := range res.Metrics {
			values[n] = append(values[n], v.Value)
			units[n] = v.Unit
		}
		fmt.Fprintf(stdout, "run %d seed %d: correct=%v attempted=%d failed=%d\n", i+1, seed, res.Correct, res.Attempted, res.Failed)
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "\n%s over %d seeds from %d\n", o.workload, o.repeat, o.seed)
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tmedian\tq1\tq3\tspread\tbound\tverdict\tunit\truns")
	for _, n := range names {
		xs := values[n]
		q1, q3, _ := quartiles(xs)
		sp, ok := spread(xs)
		verdict, bound := "-", "-"
		if b, has := bounds[n]; has {
			bound = fmt.Sprintf("%.3f", b)
			switch {
			case !ok:
				verdict = "undefined"
			case sp <= b/3:
				verdict = "steady"
			case sp <= b:
				verdict = "within"
			default:
				verdict = "UNSTEADY"
			}
		}
		spText := "-"
		if ok {
			spText = fmt.Sprintf("%.4f", sp)
		}
		runs := make([]string, len(xs))
		for i, x := range xs {
			runs[i] = fmt.Sprintf("%.4g", x)
		}
		fmt.Fprintf(tw, "  %s\t%.6g\t%.6g\t%.6g\t%s\t%s\t%s\t%s\t%s\n", n, median(xs), q1, q3, spText, bound, verdict, units[n], strings.Join(runs, " "))
	}
	tw.Flush()
	return 0
}

// withoutRepeat drops --repeat and --seed (with their values) from
// the command line, so each child runs once on its own seed.
func withoutRepeat(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		name := a
		for len(name) > 0 && name[0] == '-' {
			name = name[1:]
		}
		key, _, hasValue := strings.Cut(name, "=")
		if key == "repeat" || key == "seed" {
			if !hasValue {
				i++ // the value is the next argument
			}
			continue
		}
		out = append(out, a)
	}
	return out
}

// lastResult parses the JSON result on the last non-empty line.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

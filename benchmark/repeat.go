package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runRepeat is the noise study behind NOISE.md: it runs every workload (or
// the one named) n times as a fresh process each, seeds o.seed, o.seed+1, …,
// going round the workloads so that the runs of one workload are spread over
// the whole study rather than bunched, and prints for every metric the
// median, the quartiles and the quartile distance as a share of the median —
// the same arithmetic the acceptance check applies to ten seeds.
func runRepeat(out io.Writer, o options, n int) error {
	names := workloadNames()
	if o.workload != "" {
		if _, ok := specByName(o.workload); !ok {
			return fmt.Errorf("unknown workload %q (want one of %v)", o.workload, names)
		}
		names = []string{o.workload}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{} // workload → metric → one value per run
	units := map[string]string{}
	for i := 0; i < n; i++ {
		for _, name := range names {
			args := []string{
				"-workload", name,
				"-seed", strconv.FormatInt(o.seed+int64(i), 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
			}
			if o.trace {
				args = append(args, "-trace", "1")
			}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, o.seed+int64(i), err)
			}
			line, err := lastLine(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, o.seed+int64(i), err)
			}
			if !line.Correct || line.Failed > 0 {
				return fmt.Errorf("%s seed %d: correct=%v, %d of %d ops failed", name, o.seed+int64(i), line.Correct, line.Failed, line.Attempted)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for metric, v := range line.Metrics {
				values[name][metric] = append(values[name][metric], v.Value)
				units[metric] = v.Unit
			}
			fmt.Fprintf(out, "run %d/%d %s seed %d: ok\n", i+1, n, name, o.seed+int64(i))
		}
	}
	fmt.Fprintf(out, "\n| workload | metric | unit | median | q1 | q3 | (q3-q1)/median | values in run order |\n|---|---|---|---|---|---|---|---|\n")
	for _, name := range names {
		metrics := make([]string, 0, len(values[name]))
		for metric := range values[name] {
			metrics = append(metrics, metric)
		}
		sort.Strings(metrics)
		for _, metric := range metrics {
			q1, q2, q3 := quartiles(values[name][metric])
			fmt.Fprintf(out, "| %s | %s | %s | %.5g | %.5g | %.5g | %.4f |",
				name, metric, units[metric], q2, q1, q3, ratio(q3-q1, q2))
			for _, v := range values[name][metric] {
				fmt.Fprintf(out, " %.4g", v)
			}
			fmt.Fprintln(out, " |")
		}
	}
	return nil
}

// lastLine parses the result object a run prints last.
func lastLine(stdout []byte) (*resultLine, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, fmt.Errorf("last line of output is not a result object: %w", err)
	}
	return &line, nil
}

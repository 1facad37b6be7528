package main

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// megabytes.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// cpuTicks is the machine-wide CPU accounting of /proc/stat: the time the
// hypervisor ran something else while this guest wanted the CPU (steal),
// and the total.
type cpuTicks struct{ steal, total float64 }

// readCPUTicks reads the aggregate "cpu" line. A host without /proc/stat
// reports zeros: the steal fraction is a diagnostic, not a result.
func readCPUTicks() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTicks{}
	}
	var t cpuTicks
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return cpuTicks{}
		}
		// user nice system idle iowait irq softirq steal; guest time is
		// already inside user.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealFrac is the share of CPU time stolen between two readings.
func stealFrac(before, after cpuTicks) float64 {
	return ratio(after.steal-before.steal, after.total-before.total)
}

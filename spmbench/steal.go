package main

import (
	"fmt"
	"os"
)

// cpuCounters are the machine-wide CPU counters of /proc/stat, in clock
// ticks: steal is the time the hypervisor withheld a CPU that wanted to
// run, demand the time CPUs ran or wanted to (user, nice, system, irq,
// softirq and steal; idle and iowait excluded).
type cpuCounters struct{ steal, demand int64 }

func readCPUCounters() cpuCounters {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuCounters{} // not Linux: no steal to account for
	}
	var user, nice, system, idle, iowait, irq, softirq, steal int64
	if _, err := fmt.Sscanf(string(data), "cpu %d %d %d %d %d %d %d %d",
		&user, &nice, &system, &idle, &iowait, &irq, &softirq, &steal); err != nil {
		return cpuCounters{}
	}
	return cpuCounters{steal: steal, demand: user + nice + system + irq + softirq + steal}
}

// stealShare is the share of the CPU time demanded since c that the
// hypervisor withheld. On a shared host it swings between a few percent and
// over a third from one minute to the next; a round that wanted t seconds
// of CPU then takes about t/(1-share) of wall time. Scaling wall times by
// 1-share gives the time on a CPU the host did not take away, which is
// what the end-to-end metrics report.
func (c cpuCounters) stealShare() float64 {
	now := readCPUCounters()
	demand := now.demand - c.demand
	if demand <= 0 || now.steal < c.steal {
		return 0
	}
	return float64(now.steal-c.steal) / float64(demand)
}

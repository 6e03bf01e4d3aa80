package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// workloads maps each workload name to its runner and the reason it exists.
var workloads = map[string]struct {
	run func(opts) (*outcome, error)
	why string
}{
	"learn_cold":    {runLearnCold, "cold models learning their first tuples: online tuning, GP growth, retraining and every UDF call"},
	"serve_frozen":  {runServeFrozen, "single-tuple frozen reads with Zipf-skewed repeats: per-request overhead around the cheapest inference"},
	"query_scatter": {runQueryScatter, "bounded queries through the router: decompose, fan-out, partial merge and the certain/possible top-k merge"},
}

func main() {
	var o opts
	flag.StringVar(&o.workload, "workload", "", "learn_cold, serve_frozen or query_scatter")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of a timed phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an extra traced phase")
	flag.StringVar(&o.spansDir, "spans", "", "directory the traced phase's spans are written to")
	flag.Parse()
	w, ok := workloads[o.workload]
	if !ok || (*trace != 0 && *trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n")
		os.Exit(2)
	}
	o.trace = *trace == 1

	fmt.Printf("# host: cpu %q, nproc %d, GOMAXPROCS %d, %s\n", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("# workload %s (%s), seed %d, %gs, trace %v\n", o.workload, w.why, o.seed, o.seconds, o.trace)
	ref0 := hostRefMS()
	oc, err := w.run(o)
	ref1 := hostRefMS()
	fmt.Printf("# host_ref_ms: %.3f before, %.3f after\n", ref0, ref1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs, vals := endToEnd, oc.e2e
	if o.trace {
		for _, d := range endToEnd {
			fmt.Printf("# untraced %s = %.6g %s\n", d.Name, oc.e2e[d.Name], d.Unit)
		}
		defs, vals = perLayer, oc.layer
	}
	correct := oc.failed == 0 && len(oc.problems) == 0
	line, err := render(defs, vals, oc.attempted, oc.failed, correct)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !correct {
		os.Exit(1)
	}
}

// cpuModel reads the CPU model name, "unknown" when it is not available.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

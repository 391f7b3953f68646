// Command perfbench is the repository's serving benchmark. It drives
// the real scheduling daemon (served.Daemon) in-process through its
// HTTP handler — spec text in, JSON out, no sockets — on three
// workloads, checks every answer against a reference verdict computed
// outside timing, and prints the end-to-end metrics (-trace 0) or the
// per-layer metrics of a separate traced run (-trace 1). The last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the root of a checkout through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload hot_mix --seed 1 --seconds 20 --trace 0
//
// README.md in this directory says why each workload exists and what
// is left out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every -trace 0 run prints.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"heap_mb", "MB"},
}

// perLayer lists the per-layer metrics every -trace 1 run prints. A
// workload that does not reach a layer reports 0 for its metrics and
// names them in the "not applicable" line.
var perLayer = []struct{ name, unit string }{
	{"served.handler_us_p50", "us"},
	{"spec.parse_us_p50", "us"},
	{"core.canonicalize_us_p50", "us"},
	{"service.hit_us_p50", "us"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.memo_hit_ratio", "ratio"},
	{"service.store_hit_ratio", "ratio"},
	{"service.evictions_per_kreq", "count"},
	{"service.queue_wait_ms_total", "ms"},
	{"service.undecided_frac", "ratio"},
	{"sched.check_us_p50", "us"},
	{"sched.checks_per_req", "count"},
	{"analysis.decide_us_p50", "us"},
	{"analysis.decided_frac", "ratio"},
	{"heuristic.schedule_us_p50", "us"},
	{"heuristic.solved_frac", "ratio"},
	{"exact.search_ms_p50", "ms"},
	{"exact.search_ms_p99", "ms"},
	{"exact.searches", "count"},
	{"exact.nodes_per_search", "count"},
	{"store.open_ms", "ms"},
	{"store.get_us_p50", "us"},
	{"store.put_us_p50", "us"},
	{"store.log_bytes_per_record", "B"},
	{"runtime.allocs_per_req", "count"},
	{"runtime.alloc_bytes_per_req", "B"},
	{"runtime.gc_cycles_per_kreq", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// arenaSize is the off-heap address space a run reserves; only the
// pages it touches are backed.
const arenaSize = 256 << 20

// run is one invocation: its settings and everything it measured.
type run struct {
	cfg      config
	mem      *arena // off-heap memory for request texts and samples
	workload string
	seed     int64
	seconds  float64
	traced   bool
	root     string
	out      string

	attempted int
	fails     failures
	values    map[string]float64 // metric name → value
	samples   map[string]int     // sample count behind a timing metric
	nondet    []string           // counts that did not repeat
	notes     []string
}

// timed is the length of one timed phase. A traced run has up to
// three phases of a third of its time each: one or two untraced (for
// trace.overhead_frac and the counts that must repeat) and one traced.
func (r *run) timed() time.Duration {
	d := time.Duration(r.seconds * float64(time.Second))
	if r.traced {
		d /= 3
	}
	return d
}

func (r *run) set(name string, v float64) { r.values[name] = v }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// sameCounts records a count that must repeat across the repetitions
// of a run (passes, cycles); a count that does not is reported as
// nondeterminism, never averaged away.
func (r *run) sameCounts(name string, vals []int64) {
	for _, v := range vals[1:] {
		if v != vals[0] {
			r.nondet = append(r.nondet, fmt.Sprintf("%s varied across repetitions: %v", name, vals))
			return
		}
	}
}

// repeats records a per-request count measured twice; a relative
// change of more than tol is reported as nondeterminism.
func (r *run) repeats(name string, a, b, tol float64) {
	if d := a - b; d > tol*a || -d > tol*a {
		r.nondet = append(r.nondet, fmt.Sprintf("%s did not repeat: %.6g, then %.6g", name, a, b))
	}
}

var workloads = map[string]func(*run) error{
	"hot_mix":     runHot,
	"cold_corpus": runCold,
	"store_spill": runSpill,
}

func main() {
	r := &run{cfg: benchConfig, values: map[string]float64{}, samples: map[string]int{}}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&r.workload, "workload", "", "hot_mix, cold_corpus or store_spill")
	fs.Int64Var(&r.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&r.seconds, "seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&r.root, "root", ".", "checkout root (for the commit in the env block)")
	fs.StringVar(&r.out, "out", ".bench_build", "directory for traces and result files")
	fs.Parse(os.Args[1:])
	r.traced = *trace == 1
	wl, ok := workloads[r.workload]
	if !ok || (*trace != 0 && *trace != 1) || r.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: workload %q trace %d seconds %g\n", r.workload, *trace, r.seconds)
		os.Exit(2)
	}

	var err error
	if r.mem, err = newArena(arenaSize); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds,
		"trace":      *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"commit":     commit(r.root),
		"daemon":     r.cfg.flags(),
	}
	envLine, _ := json.Marshal(env)
	fmt.Printf("env %s\n", envLine)

	if err := wl(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	os.Exit(r.report(env))
}

// report prints the human-readable lines, writes the result file and
// prints the final JSON line; it returns the exit code.
func (r *run) report(env map[string]any) int {
	if !r.traced {
		for _, m := range endToEnd {
			if _, ok := r.values[m.name]; !ok || r.values[m.name] <= 0 {
				r.fails.add(fmt.Errorf("end-to-end metric %s was not measured", m.name))
			}
		}
	}
	list := endToEnd
	if r.traced {
		list = perLayer
	}
	metrics := make(map[string]metric, len(list))
	var na []string
	for _, m := range list {
		v, ok := r.values[m.name]
		if !ok {
			na = append(na, m.name)
		}
		metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	for _, m := range list {
		line := fmt.Sprintf("%-30s %14.6g %s", m.name, metrics[m.name].Value, m.unit)
		if n, ok := r.samples[m.name]; ok {
			line += fmt.Sprintf("  (%d samples)", n)
		}
		fmt.Println(line)
	}
	if len(na) > 0 {
		fmt.Printf("not applicable on %s (reported as 0): %s\n", r.workload, strings.Join(na, ", "))
	}
	for _, n := range r.notes {
		fmt.Println("note:", n)
	}
	for _, n := range r.nondet {
		fmt.Println("nondeterminism:", n)
	}
	for _, f := range r.fails.reasons {
		fmt.Println("FAILED:", f)
	}
	correct := r.fails.n == 0
	out := map[string]any{
		"correct":   correct,
		"attempted": r.attempted,
		"failed":    r.fails.n,
		"metrics":   metrics,
	}
	full := map[string]any{"env": env, "result": out, "samples": r.samples, "not_applicable": na,
		"nondeterminism": r.nondet, "notes": r.notes, "failures": r.fails.reasons}
	if b, err := json.MarshalIndent(full, "", "  "); err == nil {
		path := filepath.Join(r.out, "results", fmt.Sprintf("%s-seed%d-trace%d.json", r.workload, r.seed, env["trace"]))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: result file:", err)
			}
		}
	}
	last, _ := json.Marshal(out)
	fmt.Println(string(last))
	if !correct {
		return 1
	}
	return 0
}

// commit reads the checked-out commit from root/.git without running
// git; a checkout that is not a repository reports "unknown".
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}

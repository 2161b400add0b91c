// Command perfbench is the repository benchmark: it drives a scap.Handle
// through the public API with pre-generated frames and prints the
// end-to-end metrics of one workload (--trace 0), or runs the traced
// variant that times each layer's public calls from outside and prints
// the per-layer table (--trace 1). See README.md in this directory.
//
// Usage (from the repository root, after building with run.py):
//
//	perfbench --workload campus_bulk --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 1 when any
// output check failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Env records where and on what a result was measured.
type Env struct {
	Commit     string `json:"commit"`
	Source     string `json:"source_digest"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
}

// report accumulates one run's outputs.
type report struct {
	res    Result
	notes  []string          // extra human-readable lines
	detail map[string]any    // written to the results file only
	order  []string          // metric print order
	extra  map[string]Metric // printed, not part of the result line
}

func newReport() *report {
	return &report{res: Result{Correct: true, Metrics: map[string]Metric{}}, detail: map[string]any{}, extra: map[string]Metric{}}
}

func (r *report) set(name string, v float64, unit string) {
	r.res.Metrics[name] = Metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

func (r *report) fail(format string, args ...any) {
	r.res.Correct = false
	r.notes = append(r.notes, "FAIL: "+fmt.Sprintf(format, args...))
}

// count adds checked stream directions to attempted/failed.
func (r *report) count(offered, failed int, msgs []string) {
	r.res.Attempted += offered
	r.res.Failed += failed
	if failed > 0 {
		r.res.Correct = false
		for _, m := range msgs {
			r.notes = append(r.notes, "mismatch: "+m)
		}
	}
}

func main() {
	workload := flag.String("workload", "campus_bulk", "workload name")
	seed := flag.Int64("seed", 1, "trace seed")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run with per-layer metrics")
	out := flag.String("out", ".bench_build/results", "directory for the results file and the span export")
	flag.Parse()
	w, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	env := Env{
		Commit: envOr("PERFBENCH_COMMIT", "unknown"), Source: envOr("PERFBENCH_SOURCE", "unknown"),
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPUModel: cpuModel(), Workload: w.Name, Seed: *seed, Seconds: *seconds, Trace: *traced,
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d | commit %s, %s, GOMAXPROCS=%d, nproc=%d, %s\n",
		w.Name, *seed, *seconds, *traced, env.Commit, env.GoVersion, env.GOMAXPROCS, env.NProc, env.CPUModel)
	fmt.Printf("workload: %s\n", w.Why)

	g0 := time.Now()
	t, err := BuildTrace(w, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("trace: %d frames, mean %d B, %d stream directions, %d TCP connections (generated in %.1fs, untimed)\n",
		len(t.Frames), t.Bytes/int64(len(t.Frames)), len(t.Dirs), len(t.Conns), time.Since(g0).Seconds())

	rep := newReport()
	budget := time.Duration(*seconds) * time.Second
	if *traced == 0 {
		err = runEndToEnd(t, w, budget, rep)
	} else {
		if err = os.MkdirAll(*out, 0o755); err == nil {
			err = runTraced(t, w, *seed, filepath.Join(*out, w.Name+".spans.json"), rep)
		}
	}
	if err != nil {
		fatal(err)
	}
	printReport(rep)
	if err := writeResults(*out, env, rep); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results file:", err)
	}
	line, err := json.Marshal(rep.res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func envOr(k, def string) string {
	if v := os.Getenv(k); v != "" {
		return v
	}
	return def
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printReport(r *report) {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	fmt.Printf("%-34s %16s  %s\n", "metric", "value", "unit")
	for _, name := range r.order {
		m := r.res.Metrics[name]
		fmt.Printf("%-34s %16.6g  %s\n", name, m.Value, m.Unit)
	}
	names := make([]string, 0, len(r.extra))
	for n := range r.extra {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("-- printed only, not on the result line --")
	for _, name := range names {
		m := r.extra[name]
		fmt.Printf("%-34s %16.6g  %s\n", name, m.Value, m.Unit)
	}
}

func writeResults(dir string, env Env, r *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	extra := map[string]Metric{}
	for k, v := range r.extra {
		extra[k] = v
	}
	b, err := json.MarshalIndent(map[string]any{
		"env": env, "result": r.res, "extra": extra, "detail": r.detail, "notes": r.notes,
	}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", env.Workload, env.Seed, env.Trace)
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

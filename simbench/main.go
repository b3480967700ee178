// Command simbench is the repository's end-to-end benchmark. It drives one
// workload — char-cold (a simra-char figure run), serve-miss (cold
// simra-serve requests and jobs) or serve-hit (response-cache hits) — for
// a fixed number of seconds in a closed loop, checks every output, and
// prints one JSON result line as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (host time); with
// --trace 1 they are the per-layer ones from a traced run, plus the
// tracing overhead against an untraced run. See README.md for the
// workloads, the metrics and how to read them.
//
// The top-level process only orchestrates: every set-up and timed phase
// happens in a child process of the same binary, so set-up time is
// measured from a fresh process start and no child inherits another's
// process-wide tables.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runProcs is how many fresh processes a --trace 0 run uses. Each sets
// up and then measures for a third of the run length; the reported
// metrics are the medians over the processes, so one process that lands
// on a slow or fast machine state does not move the result, and setup_s is
// the median of three set-ups from process start. A --trace 1 run uses
// one untraced and one traced process of the same length.
const runProcs = 3

// runDeadline bounds a whole invocation, children included.
const runDeadline = 170 * time.Second

// childResult is what a run child reports to the orchestrator.
type childResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	Layer     map[string]float64 `json:"layer"`
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name     = flag.String("workload", "", "workload: char-cold, serve-miss, serve-hit, or all three in turn")
		seed     = flag.Uint64("seed", 1, "workload seed; every per-op seed derives from it")
		seconds  = flag.Int("seconds", 15, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
		traceDir = flag.String("trace-dir", ".bench_build/trace", "directory the traced run writes its spans to")
		childMs  = flag.Int64("child-ms", 0, "internal: run as a child measuring for this many milliseconds")
		traced   = flag.Bool("traced", false, "internal: record spans in a child")
	)
	flag.Parse()
	names := []string{*name}
	if *name == "all" && *childMs == 0 {
		names = workloadOrder
	} else if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "simbench: unknown workload %q; valid: %s, all\n", *name, strings.Join(workloadOrder, ", "))
		os.Exit(2)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "simbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	for _, n := range names {
		opts := options{workload: n, seed: *seed, seconds: *seconds, traced: *traced, traceDir: *traceDir,
			length: time.Duration(*childMs) * time.Millisecond}
		var err error
		if *childMs > 0 {
			err = child(opts)
		} else {
			err = orchestrate(opts, *trace == 1, len(names) > 1)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "simbench:", err)
			os.Exit(1)
		}
	}
}

// options are the settings a child needs.
type options struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	traceDir string
	length   time.Duration // a child's timed phase
}

// orchestrate runs the children of one workload and prints its result
// line, prefixed by the workload's name when tagged (--workload all).
func orchestrate(o options, trace, tagged bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	// Every child measures for the same share of the run length, so a
	// traced child is comparable with the untraced ones and no process
	// accumulates more per-op state than the others.
	share := time.Duration(o.seconds) * time.Second / runProcs
	var out result
	if !trace {
		vals := map[string][]float64{}
		out = result{Correct: true}
		for i := 0; i < runProcs; i++ {
			d, r, err := spawn(ctx, o, share, false)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "simbench: %s process %d: set-up %.3f s, %d ops (%d failed), %s\n",
				o.workload, i+1, d.Seconds(), r.Attempted, r.Failed, formatMetrics(r.EndToEnd))
			vals["setup_s"] = append(vals["setup_s"], d.Seconds())
			for name, v := range r.EndToEnd {
				vals[name] = append(vals[name], v)
			}
			out.Correct = out.Correct && r.Correct
			out.Attempted += r.Attempted
			out.Failed += r.Failed
		}
		med := map[string]float64{}
		for name, v := range vals {
			med[name] = median(v)
		}
		out.Metrics = withUnits(med, endToEndUnits)
	} else {
		_, base, err := spawn(ctx, o, share, false)
		if err != nil {
			return err
		}
		_, tr, err := spawn(ctx, o, share, true)
		if err != nil {
			return err
		}
		tr.Layer["trace.overhead_pct"] = 100 * (tr.EndToEnd["latency_p50_ms"]/base.EndToEnd["latency_p50_ms"] - 1)
		out = result{Correct: base.Correct && tr.Correct, Attempted: tr.Attempted, Failed: tr.Failed,
			Metrics: withUnits(tr.Layer, layerUnits)}
		fmt.Fprintf(os.Stderr, "simbench: %s tracing overhead %.2f%% on latency_p50_ms (untraced %.4f ms, traced %.4f ms)\n",
			o.workload, tr.Layer["trace.overhead_pct"], base.EndToEnd["latency_p50_ms"], tr.EndToEnd["latency_p50_ms"])
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if tagged {
		fmt.Printf("%s ", o.workload)
	}
	fmt.Println(string(line))
	return nil
}

// formatMetrics renders metrics as sorted name=value pairs.
func formatMetrics(m map[string]float64) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.4g", n, m[n])
	}
	return b.String()
}

// withUnits attaches each metric's unit, failing loudly on a metric the
// unit table does not know (a typo would otherwise vanish from output).
func withUnits(vals map[string]float64, units map[string]string) map[string]metric {
	out := make(map[string]metric, len(units))
	for name, unit := range units {
		v, ok := vals[name]
		if !ok {
			panic("simbench: metric " + name + " was not measured")
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	return out
}

// spawn runs one child of this binary that sets up and measures for
// length, and returns the time from its start to its "ready" line (the
// end of its set-up) and its result.
func spawn(ctx context.Context, o options, length time.Duration, traced bool) (time.Duration, *childResult, error) {
	args := []string{
		"--workload", o.workload,
		"--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.Itoa(o.seconds),
		"--trace-dir", o.traceDir,
		"--child-ms", strconv.FormatInt(length.Milliseconds(), 10),
	}
	if traced {
		args = append(args, "--traced")
	}
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	var ready time.Duration
	var res *childResult
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == readyLine:
			ready = time.Since(start)
		case len(line) > 0 && line[0] == '{':
			res = new(childResult)
			if err := json.Unmarshal([]byte(line), res); err != nil {
				res = nil
			}
		}
	}
	werr := cmd.Wait()
	switch {
	case werr != nil:
		return 0, nil, fmt.Errorf("child: %w", werr)
	case ready == 0:
		return 0, nil, errors.New("child ended without finishing set-up")
	case res == nil:
		return 0, nil, errors.New("child printed no result")
	}
	return ready, res, nil
}

// readyLine is what a child prints when its set-up is done.
const readyLine = "ready"

// child sets up in this process, runs the timed phase and the checks,
// and prints its result.
func child(o options) error {
	ctx := context.Background()
	w := workloads[o.workload](o.seed)
	if err := w.setup(ctx); err != nil {
		w.close()
		return fmt.Errorf("set-up: %w", err)
	}
	fmt.Println(readyLine)
	res, err := run(ctx, w, o)
	w.close()
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// median returns the median of the values (0 for none).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of the values by linear interpolation
// between order statistics (0 for none).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

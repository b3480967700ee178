package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one benchmark workload. Set-up happens once per process;
// the timed phase then runs whole rounds of ops until the run length is
// reached, so every run attempts the same mix of operations.
type workload interface {
	// setup does the workload's one-time work before the first timed op.
	setup(ctx context.Context) error
	// callers is the number of concurrent closed-loop callers.
	callers() int
	// round returns the ops of round r. Op seeds derive from the workload
	// seed and r.
	round(r int) []op
	// begin and end bracket the timed phase (counter snapshots; begin
	// switches tracing on when tr is non-nil).
	begin(tr *tracer)
	end()
	// verify runs the workload-wide checks after the timed phase; per-op
	// checks are the records' own verify functions.
	verify(ctx context.Context, recs []*opRec)
	// layer fills the workload's per-layer metrics.
	layer(m map[string]float64, recs []*opRec, spans []span)
	close()
}

// op is one operation of a round.
type op struct {
	kind string
	run  func(ctx context.Context, rec *opRec) error
}

// opRec records one executed op.
type opRec struct {
	id      int64
	round   int
	kind    string
	latency time.Duration
	// err is the op's failure: a non-2xx response, a transport error, a
	// timeout or a failed check. badOutput marks the check failures.
	err       error
	badOutput bool
	// verify, when set, is the op's check, run after the timed phase.
	verify func(ctx context.Context) error
	// job holds the job-tier timings of a job op.
	job *jobTimes
	// caller is the closed-loop caller that ran the op.
	caller int
	// data is the workload's record of the op's outputs.
	data any
	// sub is the request kind behind a job, page or batch op.
	sub string
	// format and sizeKB describe the response body.
	format string
	sizeKB float64
	// rows, decodeMs and encodeMs time colenc on a columnar body (traced
	// runs only).
	rows               int
	decodeMs, encodeMs float64
}

// failCheck marks the record failed by a check.
func (r *opRec) failCheck(err error) {
	if r.err == nil {
		r.err = err
	}
	r.badOutput = true
}

// jobTimes are one job's timestamps as the client observed them.
type jobTimes struct {
	submit, doneSeen, resultDone time.Time
	created, started, finished   time.Time
	resultMs                     float64
	shardsCached                 int64
	// ran is set when the job executed during the op (not a resubmission
	// of a finished job).
	ran bool
}

// maxFailureLines bounds how many failed ops a process reports on
// standard error (a broken serve-hit run fails tens of thousands).
const maxFailureLines = 20

// opTimeout bounds one op; a timed-out op counts as failed.
const opTimeout = 60 * time.Second

var workloads = map[string]func(seed uint64) workload{
	"char-cold":  newCharCold,
	"serve-miss": newServeMiss,
	"serve-hit":  newServeHit,
}

// workloadOrder is the order --workload all runs them in.
var workloadOrder = []string{"char-cold", "serve-miss", "serve-hit"}

// endToEndUnits are the metrics a --trace 0 run reports.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"ops_per_s":      "1/s",
	"latency_p50_ms": "ms",
	"cpu_ms_per_op":  "ms",
	"max_rss_mb":     "MB",
}

// layerUnits are the metrics a --trace 1 run reports. A layer a workload
// does not enter reads 0 (README.md lists where each one moves).
var layerUnits = map[string]string{
	"latency_p90_ms":               "ms",
	"job_p50_ms":                   "ms",
	"fleet.build_ms":               "ms",
	"dram.static_sets_per_op":      "count",
	"dram.cell_rows_per_op":        "count",
	"engine.shards_per_op":         "count",
	"engine.activations_per_op":    "count",
	"engine.wall_ms_per_op":        "ms",
	"engine.shards_cached_per_job": "count",
	"charexp.fig3_ms":              "ms",
	"charexp.fig7_ms":              "ms",
	"charexp.fig10_ms":             "ms",
	"charexp.outside_engine_ms":    "ms",
	"spice.fig15_ms":               "ms",
	"server.sweep_ms":              "ms",
	"server.scenario_ms":           "ms",
	"server.workload_ms":           "ms",
	"server.campaign_ms":           "ms",
	"server.trng_ms":               "ms",
	"server.handler_ms":            "ms",
	"server.response_kb_text":      "KB",
	"server.response_kb_csv":       "KB",
	"server.response_kb_columnar":  "KB",
	"http.roundtrip_ms":            "ms",
	"cache.hits_per_op":            "count",
	"cache.misses_per_op":          "count",
	"cache.executions_per_op":      "count",
	"cache.coalesced_per_op":       "count",
	"cache.evictions_per_op":       "count",
	"cache.hit_ratio":              "ratio",
	"jobs.queue_wait_ms":           "ms",
	"jobs.run_ms":                  "ms",
	"jobs.notify_ms":               "ms",
	"jobs.result_ms":               "ms",
	"colenc.encode_ms_per_1k_rows": "ms",
	"colenc.decode_ms_per_1k_rows": "ms",
	"runtime.alloc_mb_per_op":      "MB",
	"runtime.gc_cpu_ms_per_op":     "ms",
	"runtime.live_heap_mb":         "MB",
	"self.op_ms":                   "ms",
	"self.fleet_ms":                "ms",
	"self.charexp_ms":              "ms",
	"self.spice_ms":                "ms",
	"self.http_ms":                 "ms",
	"self.server_ms":               "ms",
	"self.jobs_ms":                 "ms",
	"self.colenc_ms":               "ms",
	"trace.spans_per_op":           "count",
	"trace.overhead_pct":           "%",
}

// procSample is a snapshot of the process's resource counters.
type procSample struct {
	cpu        time.Duration // user + system
	totalAlloc uint64
	gcCPU      float64 // seconds
}

func sampleProcess() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	s := procSample{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		totalAlloc: ms.TotalAlloc,
	}
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = gc[0].Value.Float64()
	}
	return s
}

// vmHWM returns the process's peak resident set in MB (VmHWM).
func vmHWM() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// timed runs whole rounds of ops with the workload's closed-loop callers
// until the run length has passed, and returns every op's record and the
// elapsed time.
func timed(ctx context.Context, w workload, length time.Duration, tr *tracer) ([]*opRec, time.Duration) {
	start := time.Now()
	var recs []*opRec
	var nextID int64
	for r := 0; ; r++ {
		ops := w.round(r)
		batch := make([]*opRec, len(ops))
		var next atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < w.callers(); c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(ops) {
						return
					}
					rec := &opRec{id: nextID + int64(i), round: r, kind: ops[i].kind, caller: c}
					octx, cancel := context.WithTimeout(ctx, opTimeout)
					octx, end := tr.op(octx, rec.id)
					t0 := time.Now()
					rec.err = ops[i].run(octx, rec)
					rec.latency = time.Since(t0)
					end()
					cancel()
					batch[i] = rec
				}
			}()
		}
		wg.Wait()
		nextID += int64(len(ops))
		recs = append(recs, batch...)
		if time.Since(start) >= length {
			return recs, time.Since(start)
		}
	}
}

// run executes the timed phase and the checks in this process and
// assembles the metrics.
func run(ctx context.Context, w workload, o options) (*childResult, error) {
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	w.begin(tr)
	before := sampleProcess()
	recs, elapsed := timed(ctx, w, o.length, tr)
	after := sampleProcess()
	w.end()
	rss, err := vmHWM()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	// Checks run after the timed phase, on every op that returned.
	verifyAll(ctx, recs)
	w.verify(ctx, recs)

	res := &childResult{Correct: true, Attempted: len(recs), EndToEnd: map[string]float64{}, Layer: map[string]float64{}}
	var lat []float64
	for _, r := range recs {
		if r.badOutput {
			res.Correct = false
		}
		if r.err != nil {
			if res.Failed++; res.Failed <= maxFailureLines {
				fmt.Fprintf(os.Stderr, "simbench: op %d (%s, round %d) failed: %v\n", r.id, r.kind, r.round, r.err)
			}
			continue
		}
		lat = append(lat, ms1(r.latency))
	}
	ok := float64(len(lat))
	n := float64(len(recs))
	res.EndToEnd["ops_per_s"] = ok / elapsed.Seconds()
	res.EndToEnd["latency_p50_ms"] = median(lat)
	res.EndToEnd["cpu_ms_per_op"] = ms1(after.cpu-before.cpu) / n
	res.EndToEnd["max_rss_mb"] = rss

	m := res.Layer
	for name := range layerUnits {
		m[name] = 0
	}
	if len(lat) >= 100 {
		m["latency_p90_ms"] = quantile(lat, 0.9)
	}
	m["runtime.alloc_mb_per_op"] = float64(after.totalAlloc-before.totalAlloc) / (1 << 20) / n
	m["runtime.gc_cpu_ms_per_op"] = (after.gcCPU - before.gcCPU) * 1e3 / n
	m["runtime.live_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	var spans []span
	if tr != nil {
		spans = tr.snapshot()
		for layer, d := range selfTimes(spans) {
			m["self."+layer+"_ms"] = ms1(d) / n
		}
		m["trace.spans_per_op"] = float64(len(spans)) / n
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "simbench: wrote %d spans to %s\n", len(spans), path)
	}
	jobMetrics(m, recs)
	w.layer(m, recs, spans)
	for name := range m {
		if _, ok := layerUnits[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %q has no unit", name)
		}
	}
	return res, nil
}

// verifyAll runs the records' checks on as many goroutines as there are
// CPUs; a failed check marks its op failed.
func verifyAll(ctx context.Context, recs []*opRec) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(recs) {
					return
				}
				r := recs[i]
				if r.err != nil || r.verify == nil {
					continue
				}
				if err := r.verify(ctx); err != nil {
					r.failCheck(err)
				}
			}
		}()
	}
	wg.Wait()
}

// jobMetrics fills the job-tier metrics from the job ops' timestamps.
func jobMetrics(m map[string]float64, recs []*opRec) {
	var total, wait, runT, notify, result, cached []float64
	for _, r := range recs {
		j := r.job
		if j == nil || r.err != nil {
			continue
		}
		total = append(total, ms1(j.resultDone.Sub(j.submit)))
		result = append(result, j.resultMs)
		if j.ran {
			cached = append(cached, float64(j.shardsCached))
			wait = append(wait, ms1(j.started.Sub(j.created)))
			runT = append(runT, ms1(j.finished.Sub(j.started)))
			notify = append(notify, ms1(j.doneSeen.Sub(j.finished)))
		}
	}
	m["job_p50_ms"] = median(total)
	m["jobs.queue_wait_ms"] = median(wait)
	m["jobs.run_ms"] = median(runT)
	m["jobs.notify_ms"] = median(notify)
	m["jobs.result_ms"] = median(result)
	m["engine.shards_cached_per_job"] = mean(cached)
}

// kindMedians fills server.<kind>_ms with the median op time per kind.
func kindMedians(m map[string]float64, recs []*opRec) {
	by := make(map[string][]float64)
	for _, r := range recs {
		if r.err == nil {
			by[r.kind] = append(by[r.kind], ms1(r.latency))
		}
	}
	for _, k := range []string{"sweep", "scenario", "workload", "campaign", "trng"} {
		m["server."+k+"_ms"] = median(by[k])
	}
}

// ms1 converts a duration to float milliseconds.
func ms1(d time.Duration) float64 { return float64(d) / 1e6 }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// splitmix64 is the per-op seed mixer: well spread, never reused across
// labels or indices.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// opSeed derives a nonzero seed for one op from the workload seed, a
// stream label and an index (zero means "default" to the program).
func opSeed(seed uint64, label string, i int) uint64 {
	h := seed
	for _, c := range []byte(label) {
		h = splitmix64(h ^ uint64(c))
	}
	s := splitmix64(h ^ uint64(int64(i)))
	if s == 0 {
		s = 1
	}
	return s
}

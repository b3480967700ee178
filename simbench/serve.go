package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/campaign"
	"repro/internal/charexp"
	"repro/internal/colenc"
	"repro/internal/dram"
	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/server"
	simwork "repro/internal/workload"
	"repro/pkg/simraclient"
)

// serveColumns is the subarray slice width of every serve request. It
// never changes, so the fleet's identity — and its static tables — stay
// as set-up left them.
const serveColumns = 128

// serveGroups and serveBanks bound each sweep's and scenario's sampling.
// Every new experiment seed leaves its derived per-cell rows in the
// process-wide dram table registry (about 13 MB per Fig. 3 seed at the
// default 6 groups × 2 banks), so reduced sampling keeps a serve-miss
// run's peak memory under 1 GB while still showing the growth.
const (
	serveGroups = 2
	serveBanks  = 1
)

// serveCallers is the number of concurrent clients (the machine the
// reference figures come from has 2 CPUs).
const serveCallers = 2

// clientTokens are the bearer tokens of the benchmark's two client
// identities; client auth is on, as in a deployed server.
var clientTokens = []string{"simbench-alpha", "simbench-beta"}

// harness is a server.New instance on a loopback listener with one SDK
// client per caller.
type harness struct {
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	tr      atomic.Pointer[tracer]
	clients []*simraclient.Client
	https   []*http.Client
	d0, d1  [2]int64 // dram.TableDerivations around the timed phase
	c0, c1  cache.Stats
}

func startHarness() (*harness, error) {
	tokens := make(map[string]string, len(clientTokens))
	for i, t := range clientTokens {
		tokens[t] = fmt.Sprintf("client-%d", i)
	}
	h := &harness{
		srv: server.New(server.Config{
			AuthTokens: tokens,
			// High enough that no request is refused: the benchmark
			// measures serving, not the limiter's verdicts.
			RatePerSec: 1e9,
			RateBurst:  1 << 30,
			AuditLog:   io.Discard,
		}),
		served: make(chan error, 1),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.srv.Close()
		return nil, err
	}
	h.base = "http://" + ln.Addr().String()
	h.hs = &http.Server{Handler: tracedHandler(&h.tr, h.srv.Handler())}
	go func() { h.served <- h.hs.Serve(ln) }()
	for _, tok := range clientTokens {
		hc := &http.Client{Transport: spanTransport{base: &http.Transport{
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     time.Minute,
		}}}
		h.https = append(h.https, hc)
		// Retries off: a shed or refused request counts as failed instead
		// of being retried out of sight.
		h.clients = append(h.clients, simraclient.New(h.base,
			simraclient.WithHTTPClient(hc), simraclient.WithToken(tok), simraclient.WithRetries(0)))
	}
	return h, nil
}

// close stops the listener and the server; a harness that never started
// (set-up failed before it) is nil.
func (h *harness) close() {
	if h == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx) // in-flight requests have all returned by now
	<-h.served
	h.srv.Close()
	for _, hc := range h.https {
		hc.CloseIdleConnections()
	}
}

// request is one API request of a serve workload: exactly one of the
// kind-specific fields is set.
type request struct {
	kind     string // sweep, scenario, workload, campaign or trng
	format   string // text, csv or columnar ("" for trng)
	sweep    *simraclient.SweepRequest
	scenario *simraclient.ScenarioRequest
	workload *simraclient.WorkloadRequest
	campaign *server.CampaignRequest
	trng     *simraclient.TRNGRequest
}

// payload is the request's JSON body.
func (q request) payload() any {
	switch q.kind {
	case "sweep":
		return q.sweep
	case "scenario":
		return q.scenario
	case "workload":
		return q.workload
	case "campaign":
		return q.campaign
	default:
		return q.trng
	}
}

// withFormat returns a copy of q asking for another render format.
func (q request) withFormat(f string) request {
	q.format = f
	switch q.kind {
	case "sweep":
		c := *q.sweep
		c.Format, q.sweep = f, &c
	case "scenario":
		c := *q.scenario
		c.Format, q.scenario = f, &c
	case "workload":
		c := *q.workload
		c.Format, q.workload = f, &c
	case "campaign":
		c := *q.campaign
		c.Format, q.campaign = f, &c
	}
	return q
}

// jobRequest is the SDK job submission of q (sweep, scenario, workload or
// trng; the SDK has no campaign jobs).
func (q request) jobRequest() simraclient.JobRequest {
	return simraclient.JobRequest{Kind: q.kind, Sweep: q.sweep, Scenario: q.scenario, Workload: q.workload, TRNG: q.trng}
}

// reply is one response body: the rendered output for text and csv, the
// raw stream for columnar.
type reply struct {
	body   []byte
	cached bool
}

// blocking sends q on its blocking route: through the SDK where it has
// the route, plain net/http for campaign.
func (h *harness) blocking(ctx context.Context, caller int, q request) (reply, error) {
	c := h.clients[caller]
	var res *simraclient.Result
	var err error
	switch q.kind {
	case "sweep":
		res, err = c.Sweep(ctx, *q.sweep)
	case "scenario":
		res, err = c.Scenario(ctx, *q.scenario)
	case "workload":
		res, err = c.Workload(ctx, *q.workload)
	case "trng":
		res, err = c.TRNG(ctx, *q.trng)
	case "campaign":
		return h.campaign(ctx, caller, q)
	}
	if err != nil {
		return reply{}, err
	}
	if res.Columnar != nil {
		return reply{body: res.Columnar, cached: res.Cached}, nil
	}
	return reply{body: []byte(res.Output), cached: res.Cached}, nil
}

// campaign posts a campaign request (a route the SDK lacks).
func (h *harness) campaign(ctx context.Context, caller int, q request) (reply, error) {
	resp, body, err := h.post(ctx, caller, "/v1/campaign", q.campaign)
	if err != nil {
		return reply{}, err
	}
	if resp.Header.Get("Content-Type") == simraclient.ColumnarContentType {
		return reply{body: body, cached: resp.Header.Get("X-Simra-Cached") == "true"}, nil
	}
	var env server.Response
	if err := json.Unmarshal(body, &env); err != nil {
		return reply{}, fmt.Errorf("campaign envelope: %w", err)
	}
	return reply{body: []byte(env.Output), cached: env.Cached}, nil
}

// raw fetches q's blocking ?raw=1 bytes.
func (h *harness) raw(ctx context.Context, caller int, q request) ([]byte, error) {
	_, body, err := h.post(ctx, caller, "/v1/"+q.kind+"?raw=1", q.payload())
	return body, err
}

// post sends one authenticated JSON POST and returns the 2xx response's
// body; any other status is an error.
func (h *harness) post(ctx context.Context, caller int, path string, v any) (*http.Response, []byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.base+path, bytes.NewReader(payload))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Authorization", "Bearer "+clientTokens[caller])
	resp, err := h.https[caller].Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return resp, body, nil
}

// send runs q as one timed op: a blocking request, or — for a job — the
// submit → SSE done → /result path.
func (h *harness) send(ctx context.Context, rec *opRec, q request, job bool) (reply, error) {
	var r reply
	var err error
	if job {
		r.body, err = h.runJob(ctx, rec, q)
	} else {
		tctx, end := h.tr.Load().start(ctx, "http.roundtrip")
		r, err = h.blocking(tctx, rec.caller, q)
		end()
	}
	if err != nil {
		return reply{}, err
	}
	return r, h.observe(ctx, rec, q.format, r.body)
}

// observe records a response body's format and size; traced runs also
// time colenc on columnar bodies.
func (h *harness) observe(ctx context.Context, rec *opRec, format string, body []byte) error {
	rec.format, rec.sizeKB = format, float64(len(body))/1024
	if format != "columnar" || h.tr.Load() == nil {
		return nil
	}
	return h.timeColenc(ctx, rec, body)
}

// runJob submits q as a job, follows its SSE stream to the done event and
// fetches its result, recording the job tier's timestamps.
func (h *harness) runJob(ctx context.Context, rec *opRec, q request) ([]byte, error) {
	c := h.clients[rec.caller]
	tr := h.tr.Load()
	j := &jobTimes{submit: time.Now()}
	rec.job = j
	sctx, end := tr.start(ctx, "jobs.submit")
	st, err := c.SubmitJob(sctx, q.jobRequest())
	end()
	if err != nil {
		return nil, err
	}
	if !st.Terminal() {
		wctx, end := tr.start(ctx, "jobs.watch")
		st, err = c.WatchJob(wctx, st.ID, func(ev simraclient.JobEvent) {
			if ev.Type == "done" {
				j.doneSeen = time.Now()
			}
		})
		end()
		if err != nil {
			return nil, err
		}
	}
	if st.State != "succeeded" {
		return nil, fmt.Errorf("job %s %s: %s", st.ID, st.State, st.Error)
	}
	// A resubmission that joins a finished job carries that job's old
	// timestamps; only a job that ran during this op times the tier.
	if !j.doneSeen.IsZero() && st.Started != nil && st.Finished != nil {
		j.ran = true
		j.created, j.started, j.finished = st.Created, *st.Started, *st.Finished
		j.shardsCached = st.Progress.ShardsCached
	}
	rctx, end := tr.start(ctx, "jobs.result")
	t0 := time.Now()
	res, err := c.JobResult(rctx, st.ID)
	j.resultDone = time.Now()
	end()
	j.resultMs = ms1(j.resultDone.Sub(t0))
	if err != nil {
		return nil, err
	}
	if res.Columnar != nil {
		return res.Columnar, nil
	}
	return []byte(res.Output), nil
}

// timeColenc decodes a columnar body and re-encodes the decoded table,
// timing both (traced runs only).
func (h *harness) timeColenc(ctx context.Context, rec *opRec, body []byte) error {
	tr := h.tr.Load()
	_, end := tr.start(ctx, "colenc.decode")
	t0 := time.Now()
	tab, err := colenc.Decode(body)
	rec.decodeMs = ms1(time.Since(t0))
	end()
	if err != nil {
		return fmt.Errorf("decode columnar body: %w", err)
	}
	_, end = tr.start(ctx, "colenc.encode")
	t0 = time.Now()
	_, err = colenc.Encode(tab, 0)
	rec.encodeMs = ms1(time.Since(t0))
	end()
	rec.rows = tab.NumRows()
	return err
}

// begin and end bracket the timed phase: counter snapshots, and the
// tracer the handler and client spans go to.
func (h *harness) begin(tr *tracer) {
	h.d0[0], h.d0[1] = dram.TableDerivations()
	h.c0 = h.srv.CacheStats()
	h.tr.Store(tr)
}

func (h *harness) end() {
	h.tr.Store(nil)
	h.d1[0], h.d1[1] = dram.TableDerivations()
	h.c1 = h.srv.CacheStats()
}

// layer fills the serve workloads' common per-layer metrics.
func (h *harness) layer(m map[string]float64, recs []*opRec, spans []span) {
	n := float64(len(recs))
	m["dram.static_sets_per_op"] = float64(h.d1[0]-h.d0[0]) / n
	m["dram.cell_rows_per_op"] = float64(h.d1[1]-h.d0[1]) / n
	hits, misses := float64(h.c1.Hits-h.c0.Hits), float64(h.c1.Misses-h.c0.Misses)
	m["cache.hits_per_op"] = hits / n
	m["cache.misses_per_op"] = misses / n
	m["cache.executions_per_op"] = float64(h.c1.Executions-h.c0.Executions) / n
	m["cache.coalesced_per_op"] = float64(h.c1.Coalesced-h.c0.Coalesced) / n
	m["cache.evictions_per_op"] = float64(h.c1.Evictions-h.c0.Evictions) / n
	if hits+misses > 0 {
		m["cache.hit_ratio"] = hits / (hits + misses)
	}
	kindMedians(m, recs)
	m["http.roundtrip_ms"] = median(spanDurations(spans, "http.roundtrip"))
	m["server.handler_ms"] = median(spanDurations(spans, "server.handler"))
	kb := map[string][]float64{}
	var rows int
	var dec, enc float64
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		if r.format != "" {
			kb[r.format] = append(kb[r.format], r.sizeKB)
		}
		rows += r.rows
		dec += r.decodeMs
		enc += r.encodeMs
	}
	for _, f := range []string{"text", "csv", "columnar"} {
		m["server.response_kb_"+f] = mean(kb[f])
	}
	if rows > 0 {
		m["colenc.decode_ms_per_1k_rows"] = dec / float64(rows) * 1000
		m["colenc.encode_ms_per_1k_rows"] = enc / float64(rows) * 1000
	}
}

// cells renders a decoded columnar table of the given kind into the
// header and cells its csv rendering prints, using the family's own
// reverse formatter (typed families format rates and units in csv).
func cells(kind string, t *colenc.Table) ([]string, [][]string, error) {
	var tab charexp.Table
	var err error
	switch kind {
	case "sweep":
		cols, rows := t.Strings()
		return cols, rows, nil
	case "scenario":
		tab, err = scenario.ColumnarStrings(t)
	case "workload":
		tab, err = simwork.ColumnarStrings(t)
	case "campaign":
		tab, err = campaign.ColumnarStrings(t)
	default:
		return nil, nil, fmt.Errorf("no columnar form for %s", kind)
	}
	return tab.Columns, tab.Rows, err
}

// reference renders q in-process, once per format, through the same
// packages the server uses (charexp for sweeps, scenario for scenarios)
// with the configuration the request normalizes to.
func reference(ctx context.Context, q request, formats ...string) ([]string, error) {
	out := make([]string, len(formats))
	switch q.kind {
	case "sweep":
		r, err := charexp.NewRunner(sweepConfig(*q.sweep))
		if err != nil {
			return nil, err
		}
		for i, f := range formats {
			if out[i], err = r.RunFigure(q.sweep.Figure, q.sweep.Sets, f); err != nil {
				return nil, err
			}
		}
	case "scenario":
		s := q.scenario
		cfg, err := scenario.Options{
			Op: s.Op, Grid: s.Grid, Axes: s.Axes, Envelope: s.Envelope, Target: s.Target,
			Modules: s.Modules, X: s.X, N: s.N, Trials: s.Trials, Groups: s.Groups,
			Banks: s.Banks, Columns: s.Columns, Seed: s.Seed,
		}.Resolve()
		if err != nil {
			return nil, err
		}
		res, err := scenario.Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		for i, f := range formats {
			var b strings.Builder
			if err := scenario.WriteReport(&b, res, f); err != nil {
				return nil, err
			}
			out[i] = b.String()
		}
	default:
		return nil, errors.New("no in-process reference for " + q.kind)
	}
	return out, nil
}

// sweepConfig is the charexp configuration a sweep request normalizes to:
// the representative fleet at the request's width, reduced-scale sampling
// with the request's overrides, as cmd/simra-char builds it.
func sweepConfig(q simraclient.SweepRequest) charexp.Config {
	cfg := charexp.DefaultConfig()
	fc := fleet.DefaultConfig()
	fc.Columns = 512
	if q.Columns > 0 {
		fc.Columns = q.Columns
	}
	cfg.Fleet = fleet.Representative(fc)
	if q.Trials > 0 {
		cfg.Trials = q.Trials
	}
	if q.Groups > 0 {
		cfg.GroupsPerSubarray = q.Groups
	}
	if q.Banks > 0 {
		cfg.Banks = q.Banks
	}
	if q.Seed != 0 {
		cfg.Seed = q.Seed
	}
	return cfg
}

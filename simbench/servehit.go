package main

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/server"
	"repro/pkg/simraclient"
)

// hitPageRows is the page size of serve-hit's ?batch_rows requests.
const hitPageRows = 8

// hitKinds are the server's request kinds whose executions counters must
// not move while serve-hit is timed.
var hitKinds = []string{"sweep", "workload", "trng", "scenario", "campaign", "batch"}

// hitItem is one request of the fixed serve-hit set with the body set-up
// recorded for it.
type hitItem struct {
	kind string // op kind: a request kind, "batch", "page" or "job"
	q    request
	want []byte
	// batch holds a /v1/batch request and its recorded outputs.
	batch     *simraclient.BatchRequest
	batchWant []string
	// page is the ?batch index of a page item.
	page int
}

// serveHit repeats a fixed set of requests that set-up computed once, so
// every timed request is a response-cache hit.
type serveHit struct {
	seed uint64
	*harness
	items []hitItem
	full  []byte   // the paged sweep's full columnar stream
	pages [][]byte // set-up's pages of it
	ex0   map[string]int64
	ex1   map[string]int64
}

func newServeHit(seed uint64) workload { return &serveHit{seed: seed} }

func (w *serveHit) callers() int { return serveCallers }

// hitRequests builds the set: every kind × {text, csv, columnar}, plus
// TRNG. Formats of one kind share one experiment seed, so they also share
// engine shards, as a client switching formats would.
func (w *serveHit) hitRequests() []request {
	var out []request
	for i, kind := range []string{"sweep", "scenario", "workload", "campaign"} {
		seed := opSeed(w.seed, "hit", i)
		for _, f := range []string{"text", "csv", "columnar"} {
			q := request{kind: kind, format: f}
			switch kind {
			case "sweep":
				q.sweep = &simraclient.SweepRequest{Figure: "3", Columns: serveColumns,
					Groups: serveGroups, Banks: serveBanks, Seed: seed, Format: f}
			case "scenario":
				q.scenario = &simraclient.ScenarioRequest{Op: "activation", Grid: "timing", Modules: "representative",
					Columns: serveColumns, Groups: serveGroups, Banks: serveBanks, Seed: seed, Format: f}
			case "workload":
				q.workload = &simraclient.WorkloadRequest{Workloads: "all", Modules: "representative",
					Columns: serveColumns, Seed: seed, Format: f}
			case "campaign":
				q.campaign = &server.CampaignRequest{Workload: "bitmap-scan", Columns: serveColumns, Seed: seed, Format: f}
			}
			out = append(out, q)
		}
	}
	return append(out, request{kind: "trng", trng: &simraclient.TRNGRequest{Bytes: 1024}})
}

// setup starts the server and computes every request of the set once.
func (w *serveHit) setup(ctx context.Context) error {
	h, err := startHarness()
	if err != nil {
		return err
	}
	w.harness = h
	reqs := w.hitRequests()
	for _, q := range reqs {
		r, err := h.blocking(ctx, 0, q)
		if err != nil {
			return fmt.Errorf("set-up %s %s: %w", q.kind, q.format, err)
		}
		w.items = append(w.items, hitItem{kind: q.kind, q: q, want: r.body})
		if q.kind == "sweep" && q.format == "columnar" {
			w.full = r.body
		}
	}

	// A batch of text and csv items (batches refuse columnar in-band).
	batch := &simraclient.BatchRequest{}
	for _, q := range reqs {
		if q.kind == "campaign" || q.format == "columnar" {
			continue // the SDK's batch items have no campaign kind
		}
		batch.Requests = append(batch.Requests, simraclient.BatchItem{
			Kind: q.kind, Sweep: q.sweep, Scenario: q.scenario, Workload: q.workload, TRNG: q.trng})
	}
	envs, err := h.clients[0].Batch(ctx, *batch)
	if err != nil {
		return fmt.Errorf("set-up batch: %w", err)
	}
	var outs []string
	for _, e := range envs {
		if e.Error != "" {
			return fmt.Errorf("set-up batch item: %s", e.Error)
		}
		outs = append(outs, e.Output)
	}
	w.items = append(w.items, hitItem{kind: "batch", batch: batch, batchWant: outs})

	// Columnar pages of the sweep stream.
	sweep := reqs[2]
	for p := 0; ; p++ {
		body, next, err := w.page(ctx, 0, sweep, p)
		if err != nil {
			return fmt.Errorf("set-up page %d: %w", p, err)
		}
		w.pages = append(w.pages, body)
		w.items = append(w.items, hitItem{kind: "page", q: sweep, want: body, page: p})
		if !next {
			break
		}
	}

	// Jobs whose resubmissions join the finished job.
	for _, q := range []request{reqs[1], reqs[5]} {
		body, err := h.runJob(ctx, &opRec{}, q)
		if err != nil {
			return fmt.Errorf("set-up job %s: %w", q.kind, err)
		}
		w.items = append(w.items, hitItem{kind: "job", q: q, want: body})
	}
	return nil
}

// page fetches one ?batch_rows page of a columnar request and reports
// whether another follows.
func (w *serveHit) page(ctx context.Context, caller int, q request, p int) ([]byte, bool, error) {
	path := fmt.Sprintf("/v1/%s?batch=%d&batch_rows=%d", q.kind, p, hitPageRows)
	resp, body, err := w.post(ctx, caller, path, q.payload())
	if err != nil {
		return nil, false, err
	}
	if got := resp.Header.Get("X-Simra-Batch"); got != strconv.Itoa(p) {
		return nil, false, fmt.Errorf("X-Simra-Batch %q, want %d", got, p)
	}
	return body, resp.Header.Get("X-Simra-Batch-Next") != "", nil
}

var errNotCached = errors.New("response not served from the cache")

func (w *serveHit) round(int) []op {
	ops := make([]op, len(w.items))
	for i := range w.items {
		it := &w.items[i]
		ops[i] = op{kind: it.kind, run: func(ctx context.Context, rec *opRec) error {
			return w.hit(ctx, rec, it)
		}}
	}
	return ops
}

// hit runs one item and compares its body with set-up's; a mismatch or a
// response computed afresh fails the op.
func (w *serveHit) hit(ctx context.Context, rec *opRec, it *hitItem) error {
	h := w.harness
	rec.sub = it.q.kind
	switch it.kind {
	case "batch":
		rec.sub = "batch"
		tctx, end := h.tr.Load().start(ctx, "http.roundtrip")
		envs, err := h.clients[rec.caller].Batch(tctx, *it.batch)
		end()
		if err != nil {
			return err
		}
		if len(envs) != len(it.batchWant) {
			rec.failCheck(fmt.Errorf("batch: %d responses, want %d", len(envs), len(it.batchWant)))
			return nil
		}
		for i, e := range envs {
			if err := checkBody([]byte(it.batchWant[i]), []byte(e.Output)); err != nil {
				rec.failCheck(fmt.Errorf("batch item %d: %w", i, err))
				return nil
			}
			if !e.Cached {
				rec.failCheck(fmt.Errorf("batch item %d: %w", i, errNotCached))
				return nil
			}
		}
		return nil
	case "page":
		tctx, end := h.tr.Load().start(ctx, "http.roundtrip")
		body, _, err := w.page(tctx, rec.caller, it.q, it.page)
		end()
		if err != nil {
			return err
		}
		if err := h.observe(ctx, rec, "columnar", body); err != nil {
			return err
		}
		if err := checkBody(it.want, body); err != nil {
			rec.failCheck(fmt.Errorf("page %d: %w", it.page, err))
		}
		return nil
	}
	job := it.kind == "job"
	r, err := h.send(ctx, rec, it.q, job)
	if err != nil {
		return err
	}
	if err := checkBody(it.want, r.body); err != nil {
		rec.failCheck(err)
	} else if !job && !r.cached {
		// A resubmitted job joins the finished job; only blocking
		// responses carry the cache flag.
		rec.failCheck(errNotCached)
	}
	return nil
}

func (w *serveHit) begin(tr *tracer) {
	w.ex0 = w.executions()
	w.harness.begin(tr)
}

func (w *serveHit) end() {
	w.harness.end()
	w.ex1 = w.executions()
}

func (w *serveHit) executions() map[string]int64 {
	out := make(map[string]int64, len(hitKinds))
	for _, k := range hitKinds {
		out[k] = w.srv.Executions(k)
	}
	return out
}

// verify checks that no request executed during the timed phase and that
// the pages every timed page equalled concatenate to the full stream.
func (w *serveHit) verify(_ context.Context, recs []*opRec) {
	pagesErr := checkPages(w.pages, w.full)
	for _, r := range recs {
		if r.kind == "page" && pagesErr != nil {
			r.failCheck(fmt.Errorf("pages vs full stream: %w", pagesErr))
		}
		for _, k := range hitKinds {
			if d := w.ex1[k] - w.ex0[k]; d != 0 && (r.kind == k || r.sub == k || r.kind == "batch") {
				r.failCheck(fmt.Errorf("%d %s executions during the timed phase", d, k))
			}
		}
	}
}

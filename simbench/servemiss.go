package main

import (
	"context"
	"fmt"

	"repro/internal/server"
	"repro/pkg/simraclient"
)

// missTemplate is one slot of the serve-miss rotation.
type missTemplate struct {
	kind, format string
	job          bool
	fig          string // sweep figure
	op, grid     string // scenario op family and grid
}

// missRound is the serve-miss rotation: sweeps of Figs. 3, 7 and 10,
// scenario grids, workload, campaign and TRNG requests over the three
// formats, with a fixed share submitted as jobs. Ordered by cost, it is
// four light ops (scenarios, TRNG), five sweeps and four heavy ops (jobs,
// workload, campaign): the median op falls in the middle of the sweeps'
// latency cluster, not on the edge between two clusters, where it would
// jump from run to run.
var missRound = []missTemplate{
	{kind: "scenario", op: "activation", grid: "timing", format: "text"},
	{kind: "scenario", op: "maj", grid: "pattern", format: "csv"},
	{kind: "scenario", op: "copy", grid: "thermal", format: "columnar"},
	{kind: "trng"},
	{kind: "sweep", fig: "3", format: "text"},
	{kind: "sweep", fig: "7", format: "csv"},
	{kind: "sweep", fig: "10", format: "columnar"},
	{kind: "sweep", fig: "3", format: "columnar"},
	{kind: "sweep", fig: "7", format: "text"},
	{kind: "sweep", fig: "3", format: "csv", job: true},
	{kind: "scenario", op: "activation", grid: "timing", format: "columnar", job: true},
	{kind: "workload", format: "columnar"},
	{kind: "campaign", format: "csv"},
}

// serveMiss posts requests that each carry a new experiment seed (or TRNG
// byte count), so the response cache and the shard memo miss.
type serveMiss struct {
	seed uint64
	*harness
}

func newServeMiss(seed uint64) workload { return &serveMiss{seed: seed} }

func (w *serveMiss) callers() int { return serveCallers }

// request builds slot i of round r; round -1 is set-up's.
func (w *serveMiss) request(r, i int) request {
	t := missRound[i]
	seed := opSeed(w.seed, "miss", (r+1)*len(missRound)+i)
	q := request{kind: t.kind, format: t.format}
	switch t.kind {
	case "sweep":
		q.sweep = &simraclient.SweepRequest{Figure: t.fig, Columns: serveColumns,
			Groups: serveGroups, Banks: serveBanks, Seed: seed, Format: t.format}
	case "scenario":
		q.scenario = &simraclient.ScenarioRequest{Op: t.op, Grid: t.grid, Modules: "representative",
			Columns: serveColumns, Groups: serveGroups, Banks: serveBanks, Seed: seed, Format: t.format}
	case "workload":
		q.workload = &simraclient.WorkloadRequest{Workloads: "all", Modules: "representative",
			Columns: serveColumns, Seed: seed, Format: t.format}
	case "campaign":
		q.campaign = &server.CampaignRequest{Workload: "bitmap-scan", Columns: serveColumns, Seed: seed, Format: t.format}
	case "trng":
		// The TRNG module's identity stays fixed; a new byte count makes a
		// new request.
		q.trng = &simraclient.TRNGRequest{Bytes: trngBytes(r)}
	}
	return q
}

// trngBytes is round r's TRNG request size (r = -1 for set-up).
func trngBytes(r int) int { return 512 + r }

// setup starts the server and sends one untimed rotation, which derives
// the fleet's static tables and warms every route.
func (w *serveMiss) setup(ctx context.Context) error {
	h, err := startHarness()
	if err != nil {
		return err
	}
	w.harness = h
	for i, t := range missRound {
		rec := &opRec{}
		if _, err := h.send(ctx, rec, w.request(-1, i), t.job); err != nil {
			return fmt.Errorf("set-up %s: %w", t.kind, err)
		}
	}
	return nil
}

func (w *serveMiss) round(r int) []op {
	ops := make([]op, len(missRound))
	for i, t := range missRound {
		q := w.request(r, i)
		kind := t.kind
		if t.job {
			kind = "job"
		}
		ops[i] = op{kind: kind, run: func(ctx context.Context, rec *opRec) error {
			rec.sub = q.kind
			r, err := w.send(ctx, rec, q, t.job)
			if err != nil {
				return err
			}
			rec.verify = func(ctx context.Context) error { return w.check(ctx, q, t.job, r.body) }
			return nil
		}}
	}
	return ops
}

// check verifies one response after the timed phase.
func (w *serveMiss) check(ctx context.Context, q request, job bool, body []byte) error {
	if job {
		raw, err := w.raw(ctx, 0, q)
		if err != nil {
			return fmt.Errorf("blocking ?raw=1 for the job's request: %w", err)
		}
		if err := checkBody(raw, body); err != nil {
			return fmt.Errorf("job /result vs blocking ?raw=1: %w", err)
		}
	}
	switch q.kind {
	case "trng":
		return checkMonobit(string(body), q.trng.Bytes)
	case "sweep", "scenario":
		formats := []string{q.format}
		if q.format == "columnar" {
			formats = append(formats, "csv")
		}
		ref, err := reference(ctx, q, formats...)
		if err != nil {
			return fmt.Errorf("in-process reference: %w", err)
		}
		if err := checkBody([]byte(ref[0]), body); err != nil {
			return fmt.Errorf("vs in-process %s render: %w", q.kind, err)
		}
		if q.format == "columnar" {
			return checkColumnarRows(q.kind, body, ref[1])
		}
	case "workload", "campaign":
		if q.format != "columnar" {
			return nil
		}
		r, err := w.blocking(ctx, 0, q.withFormat("csv"))
		if err != nil {
			return fmt.Errorf("csv of the same request: %w", err)
		}
		return checkColumnarRows(q.kind, body, string(r.body))
	}
	return nil
}

func (w *serveMiss) verify(context.Context, []*opRec) {}

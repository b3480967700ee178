package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/charexp"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/fleet"
)

// charColumns is the char-cold subarray slice width. Every op derives a
// fresh fleet's tables, and the process-wide table registry keeps them
// (about 17 MB per op at 128 columns, against 65 MB at simra-char's
// default 512), so the narrower slice keeps a run's peak memory near
// 1 GB.
const charColumns = 128

// charFigures are the figures one char-cold op renders, with the span
// each is timed under.
var charFigures = []struct{ id, span string }{
	{"3", "charexp.fig3"},
	{"7", "charexp.fig7"},
	{"10", "charexp.fig10"},
	{"15", "spice.fig15"},
}

// charCold stands for a simra-char figure run: each op builds a
// representative fleet under fresh fleet and experiment seeds and renders
// Figs. 3, 7, 10 and 15, so every dram table is derived from empty.
type charCold struct {
	seed    uint64
	workers int
	tr      *tracer
	d0, d1  [2]int64 // dram.TableDerivations at begin and end
}

// charOut is one char-cold op's outputs and per-layer timings.
type charOut struct {
	csv      [4]string
	figMs    [4]float64
	engineMs [3]float64 // engine wall inside Figs. 3, 7 and 10
	buildMs  float64
	stats    engine.Snapshot
}

func newCharCold(seed uint64) workload {
	return &charCold{seed: seed, workers: runtime.NumCPU()}
}

func (w *charCold) callers() int { return 1 }

// config is op i's figure-run configuration.
func (w *charCold) config(label string, i, workers int) charexp.Config {
	cfg := charexp.DefaultConfig()
	fc := fleet.DefaultConfig()
	fc.Columns = charColumns
	fc.Seed = opSeed(w.seed, label+"/fleet", i)
	cfg.Fleet = fleet.Representative(fc)
	cfg.Seed = opSeed(w.seed, label+"/exp", i)
	cfg.Engine.Workers = workers
	return cfg
}

// render builds the op's fleet and renders its figures in csv.
func (w *charCold) render(ctx context.Context, cfg charexp.Config) (*charOut, error) {
	out := new(charOut)
	_, end := w.tr.start(ctx, "fleet.build")
	t0 := time.Now()
	r, err := charexp.NewRunner(cfg)
	out.buildMs = ms1(time.Since(t0))
	end()
	if err != nil {
		return nil, err
	}
	for i, f := range charFigures {
		before := r.Stats().Wall
		_, end := w.tr.start(ctx, f.span)
		t0 := time.Now()
		out.csv[i], err = r.RunFigure(f.id, 0, "csv")
		out.figMs[i] = ms1(time.Since(t0))
		end()
		if err != nil {
			return nil, err
		}
		if i < len(out.engineMs) {
			out.engineMs[i] = ms1(r.Stats().Wall - before)
		}
	}
	out.stats = r.Stats()
	return out, nil
}

// setup renders one untimed op, as the first figure run of a fresh
// process would.
func (w *charCold) setup(ctx context.Context) error {
	_, err := w.render(ctx, w.config("setup", 0, w.workers))
	return err
}

func (w *charCold) round(r int) []op {
	return []op{{kind: "figures", run: func(ctx context.Context, rec *opRec) error {
		out, err := w.render(ctx, w.config("op", r, w.workers))
		if err != nil {
			return err
		}
		rec.data = out
		rec.verify = func(context.Context) error { return checkFigures(out.csv) }
		return nil
	}}}
}

func (w *charCold) begin(tr *tracer) {
	w.tr = tr
	w.d0[0], w.d0[1] = dram.TableDerivations()
}

func (w *charCold) end() { w.d1[0], w.d1[1] = dram.TableDerivations() }

// verify re-renders the first op at engine workers = 1: its bytes must
// equal the timed op's (DESIGN.md §2).
func (w *charCold) verify(ctx context.Context, recs []*opRec) {
	if len(recs) == 0 || recs[0].err != nil {
		return
	}
	ref, err := w.render(ctx, w.config("op", 0, 1))
	if err != nil {
		recs[0].failCheck(fmt.Errorf("re-render at workers=1: %w", err))
		return
	}
	got := recs[0].data.(*charOut)
	if err := checkSameBytes(ref.csv[:], got.csv[:]); err != nil {
		recs[0].failCheck(fmt.Errorf("workers=1 re-render: %w", err))
	}
}

func (w *charCold) layer(m map[string]float64, recs []*opRec, _ []span) {
	var build, outside, engWall, shards, acts []float64
	figs := make([][]float64, len(charFigures))
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		o := r.data.(*charOut)
		build = append(build, o.buildMs)
		var eng, fig float64
		for i := range charFigures {
			figs[i] = append(figs[i], o.figMs[i])
		}
		for i, e := range o.engineMs {
			eng += e
			fig += o.figMs[i]
		}
		outside = append(outside, fig-eng)
		engWall = append(engWall, ms1(o.stats.Wall))
		shards = append(shards, float64(o.stats.ShardsDone))
		acts = append(acts, float64(o.stats.Activations))
	}
	n := float64(len(recs))
	m["fleet.build_ms"] = median(build)
	m["charexp.fig3_ms"] = median(figs[0])
	m["charexp.fig7_ms"] = median(figs[1])
	m["charexp.fig10_ms"] = median(figs[2])
	m["spice.fig15_ms"] = median(figs[3])
	m["charexp.outside_engine_ms"] = median(outside)
	m["engine.wall_ms_per_op"] = mean(engWall)
	m["engine.shards_per_op"] = mean(shards)
	m["engine.activations_per_op"] = mean(acts)
	m["dram.static_sets_per_op"] = float64(w.d1[0]-w.d0[0]) / n
	m["dram.cell_rows_per_op"] = float64(w.d1[1]-w.d0[1]) / n
}

func (w *charCold) close() {}

package main

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/charexp"
	"repro/internal/colenc"
	"repro/internal/fleet"
	"repro/internal/trng"
)

// figures renders one small char-cold op once for the tests.
var figures = sync.OnceValues(func() ([4]string, error) {
	cfg := charexp.DefaultConfig()
	fc := fleet.DefaultConfig()
	fc.Columns = 64
	cfg.Fleet = fleet.Representative(fc)
	r, err := charexp.NewRunner(cfg)
	if err != nil {
		return [4]string{}, err
	}
	var out [4]string
	for i, f := range charFigures {
		if out[i], err = r.RunFigure(f.id, 20, "csv"); err != nil {
			return out, err
		}
	}
	return out, nil
})

func mustFigures(t *testing.T) [4]string {
	t.Helper()
	f, err := figures()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// swapLines swaps lines i and j of a text.
func swapLines(text string, i, j int) string {
	lines := strings.Split(text, "\n")
	lines[i], lines[j] = lines[j], lines[i]
	return strings.Join(lines, "\n")
}

// flipByte returns a copy of b with byte i's low bit flipped.
func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 1
	return out
}

func TestCheckFiguresAcceptsRenderedFigures(t *testing.T) {
	if err := checkFigures(mustFigures(t)); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFiguresRejectsRateAbove100(t *testing.T) {
	for fig := range charFigures {
		f := mustFigures(t)
		lines := strings.Split(f[fig], "\n")
		// Row 5 of every figure has a success rate in its last column.
		cells := strings.Split(lines[5], ",")
		cells[len(cells)-1] = "100.01%"
		lines[5] = strings.Join(cells, ",")
		f[fig] = strings.Join(lines, "\n")
		if err := checkFigures(f); err == nil {
			t.Errorf("figure %s: a 100.01%% rate passed", charFigures[fig].id)
		}
	}
}

func TestCheckRatesRejectsNegativeAndNonPercent(t *testing.T) {
	for _, cell := range []string{"-0.01%", "55.0", "NaN%", "x%"} {
		text := "rows,mean\n4," + cell + "\n"
		if err := checkRates(text, []string{"mean"}, false); err == nil {
			t.Errorf("rate cell %q passed", cell)
		}
	}
	if err := checkRates("rows,mean\n4,-\n", []string{"mean"}, true); err != nil {
		t.Errorf("dash cell rejected where allowed: %v", err)
	}
}

func TestCheckMAJ3RisesRejectsSwappedRows(t *testing.T) {
	f := mustFigures(t)
	// Fig. 7's first MAJ3 pattern block lists rows 4, 8, 16 and 32 on
	// lines 1-4: swapping the row counts of lines 1 and 4 inverts the
	// replication trend for that pattern.
	lines := strings.Split(f[1], "\n")
	a, b := strings.Split(lines[1], ","), strings.Split(lines[4], ",")
	if a[2] != "4" || b[2] != "32" {
		t.Fatalf("unexpected Fig. 7 layout: %q, %q", lines[1], lines[4])
	}
	a[2], b[2] = b[2], a[2]
	lines[1], lines[4] = strings.Join(a, ","), strings.Join(b, ",")
	if err := checkMAJ3Rises(strings.Join(lines, "\n")); err == nil {
		t.Fatal("Fig. 7 with MAJ3's 4- and 32-row rows swapped passed")
	}
}

func TestCheckSameBytesRejectsFlippedByte(t *testing.T) {
	f := mustFigures(t)
	got := f
	got[2] = string(flipByte([]byte(got[2]), len(got[2])/2))
	if err := checkSameBytes(f[:], got[:]); err == nil {
		t.Fatal("a flipped byte passed")
	}
	if err := checkSameBytes(f[:], f[:]); err != nil {
		t.Fatal(err)
	}
}

// sweepRenders returns one small Fig. 3 sweep as columnar and csv.
func sweepRenders(t *testing.T) ([]byte, string) {
	t.Helper()
	cfg := charexp.DefaultConfig()
	fc := fleet.DefaultConfig()
	fc.Columns = 64
	cfg.Fleet = fleet.Representative(fc)
	cfg.GroupsPerSubarray, cfg.Banks = 2, 1
	r, err := charexp.NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	col, err := r.RunFigure("3", 0, "columnar")
	if err != nil {
		t.Fatal(err)
	}
	csv, err := r.RunFigure("3", 0, "csv")
	if err != nil {
		t.Fatal(err)
	}
	return []byte(col), csv
}

func TestCheckColumnarRows(t *testing.T) {
	col, csv := sweepRenders(t)
	if err := checkColumnarRows("sweep", col, csv); err != nil {
		t.Fatal(err)
	}
	if err := checkColumnarRows("sweep", col, swapLines(csv, 1, 2)); err == nil {
		t.Error("csv with two rows swapped passed")
	}
	if err := checkColumnarRows("sweep", flipByte(col, len(col)-64), csv); err == nil {
		t.Error("columnar body with a flipped byte passed")
	}
}

func TestCheckPages(t *testing.T) {
	full, _ := sweepRenders(t)
	var pages [][]byte
	for p := 0; ; p++ {
		page, info, err := colenc.Page(full, p, 4)
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, page)
		if p == info.BatchCount-1 {
			break
		}
	}
	if len(pages) < 2 {
		t.Fatalf("%d pages; the test needs at least 2", len(pages))
	}
	if err := checkPages(pages, full); err != nil {
		t.Fatal(err)
	}
	swapped := append([][]byte(nil), pages...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if err := checkPages(swapped, full); err == nil {
		t.Error("pages out of order passed")
	}
	if err := checkPages(pages[1:], full); err == nil {
		t.Error("a missing page passed")
	}
}

func TestCheckMonobit(t *testing.T) {
	buf := make([]byte, 512)
	rand.New(rand.NewSource(1)).Read(buf)
	dump := trng.FormatHex(buf)
	if err := checkMonobit(dump, len(buf)); err != nil {
		t.Fatal(err)
	}
	if err := checkMonobit(trng.FormatHex(make([]byte, 512)), 512); err == nil {
		t.Error("all-zero bytes passed")
	}
	if err := checkMonobit(dump, 511); err == nil {
		t.Error("a dump of the wrong length passed")
	}
	if err := checkMonobit(strings.Replace(dump, "0010  ", "0011  ", 1), 512); err == nil {
		t.Error("a dump with a wrong offset passed")
	}
}

func TestCheckBodyRejectsFlippedByte(t *testing.T) {
	body := []byte("Fig3 — output\n1,2,3\n")
	if err := checkBody(body, flipByte(body, 3)); err == nil {
		t.Fatal("a flipped byte passed")
	}
	if err := checkBody(body, append([]byte(nil), body...)); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "http.roundtrip", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "server.handler", Start: 20, End: 60},
		{ID: 4, Parent: 2, Name: "server.handler", Start: 50, End: 80},
	}
	got := selfTimes(spans)
	want := map[string]int64{"op": 20, "http": 20, "server": 70}
	for layer, w := range want {
		if int64(got[layer]) != w {
			t.Errorf("self time of %s = %d, want %d", layer, got[layer], w)
		}
	}
}

// runRound sets a workload up, runs one timed round and its checks, and
// returns the records.
func runRound(t *testing.T, w workload) []*opRec {
	t.Helper()
	ctx := context.Background()
	if err := w.setup(ctx); err != nil {
		w.close()
		t.Fatal(err)
	}
	defer w.close()
	w.begin(nil)
	recs, _ := timed(ctx, w, time.Nanosecond, nil)
	w.end()
	verifyAll(ctx, recs)
	w.verify(ctx, recs)
	return recs
}

func TestServeRoundsPassChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a server and runs a round of every serve workload")
	}
	for name, w := range map[string]workload{"serve-miss": newServeMiss(7), "serve-hit": newServeHit(7)} {
		for _, r := range runRound(t, w) {
			if r.err != nil {
				t.Errorf("%s op %d (%s): %v", name, r.id, r.kind, r.err)
			}
		}
	}
}

func TestServeHitVerifyFailsMovedExecutions(t *testing.T) {
	w := &serveHit{
		ex0: map[string]int64{"sweep": 3, "scenario": 1},
		ex1: map[string]int64{"sweep": 4, "scenario": 1},
	}
	recs := []*opRec{{kind: "sweep"}, {kind: "job", sub: "sweep"}, {kind: "scenario"}}
	w.verify(context.Background(), recs)
	for i, wantFail := range []bool{true, true, false} {
		if got := recs[i].err != nil; got != wantFail {
			t.Errorf("op %d (%s/%s) failed = %v, want %v", i, recs[i].kind, recs[i].sub, got, wantFail)
		}
	}
}

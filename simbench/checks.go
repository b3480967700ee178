package main

// The checks below judge the program's outputs from outside it: they parse
// the rendered bytes themselves and test properties the method must have,
// or compare against an independent rendering of the same request.

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/colenc"
)

// summaryColumns are the success-rate distribution columns of the sweep
// figures (Figs. 3, 7 and 10).
var summaryColumns = []string{"mean", "min", "q1", "median", "q3", "max"}

// checkFigures checks one char-cold op's rendered Figs. 3, 7, 10 and 15.
func checkFigures(csvs [4]string) error {
	for i, id := range []string{"3", "7", "10"} {
		if err := checkRates(csvs[i], summaryColumns, false); err != nil {
			return fmt.Errorf("Fig. %s: %w", id, err)
		}
	}
	if err := checkRates(csvs[3], []string{"MAJ3 success"}, true); err != nil {
		return fmt.Errorf("Fig. 15: %w", err)
	}
	if err := checkMAJ3Rises(csvs[1]); err != nil {
		return fmt.Errorf("Fig. 7: %w", err)
	}
	return nil
}

// parseCSV parses a rendered csv table into its header and rows.
func parseCSV(text string) ([]string, [][]string, error) {
	recs, err := csv.NewReader(strings.NewReader(text)).ReadAll()
	if err != nil {
		return nil, nil, err
	}
	if len(recs) == 0 {
		return nil, nil, errors.New("empty table")
	}
	return recs[0], recs[1:], nil
}

// column returns the index of the named column.
func column(header []string, name string) (int, error) {
	for i, h := range header {
		if h == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("no column %q in %v", name, header)
}

// parseRate parses a "12.34%" cell as a percentage.
func parseRate(cell string) (float64, error) {
	num, ok := strings.CutSuffix(cell, "%")
	if !ok {
		return 0, fmt.Errorf("rate %q is not a percentage", cell)
	}
	return strconv.ParseFloat(num, 64)
}

// checkRates checks that every cell of the named columns is a success
// rate in [0, 100]% ("-" is accepted where dash is set: no rate defined).
func checkRates(text string, cols []string, dash bool) error {
	header, rows, err := parseCSV(text)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return errors.New("no rows")
	}
	for _, name := range cols {
		ci, err := column(header, name)
		if err != nil {
			return err
		}
		for ri, row := range rows {
			cell := row[ci]
			if dash && cell == "-" {
				continue
			}
			v, err := parseRate(cell)
			if err != nil {
				return fmt.Errorf("row %d %s: %w", ri+1, name, err)
			}
			if !(v >= 0 && v <= 100) {
				return fmt.Errorf("row %d %s: rate %v%% outside [0, 100]%%", ri+1, name, v)
			}
		}
	}
	return nil
}

// checkMAJ3Rises checks the paper's input-replication result on Fig. 7:
// for every data pattern, MAJ3's mean success rate at 32 activated rows
// exceeds its mean at 4 rows.
func checkMAJ3Rises(text string) error {
	header, rows, err := parseCSV(text)
	if err != nil {
		return err
	}
	var idx [4]int
	for i, name := range []string{"MAJ", "pattern", "rows", "mean"} {
		if idx[i], err = column(header, name); err != nil {
			return err
		}
	}
	at4, at32 := map[string]float64{}, map[string]float64{}
	var patterns []string
	for _, row := range rows {
		if row[idx[0]] != "3" {
			continue
		}
		p := row[idx[1]]
		v, err := parseRate(row[idx[3]])
		if err != nil {
			return err
		}
		switch row[idx[2]] {
		case "4":
			if _, seen := at4[p]; !seen {
				patterns = append(patterns, p)
			}
			at4[p] = v
		case "32":
			at32[p] = v
		}
	}
	if len(patterns) == 0 {
		return errors.New("no MAJ3 rows at 4 activated rows")
	}
	for _, p := range patterns {
		hi, ok := at32[p]
		if !ok {
			return fmt.Errorf("pattern %s: no MAJ3 row at 32 activated rows", p)
		}
		if !(hi > at4[p]) {
			return fmt.Errorf("pattern %s: MAJ3 mean %.2f%% at 32 rows does not exceed %.2f%% at 4 rows", p, hi, at4[p])
		}
	}
	return nil
}

// checkSameBytes checks that two renderings are byte-identical.
func checkSameBytes(want, got []string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("output %d differs at byte %d", i, firstDiff(want[i], got[i]))
		}
	}
	return nil
}

// firstDiff returns the offset of the first differing byte.
func firstDiff(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// checkColumnarRows checks a columnar body of the given request kind
// against the csv rendering of the same request: decoded with
// colenc.Decode and rendered to cells, it must hold exactly the csv's
// header and rows.
func checkColumnarRows(kind string, body []byte, csvText string) error {
	tab, err := colenc.Decode(body)
	if err != nil {
		return fmt.Errorf("decode columnar: %w", err)
	}
	cols, rows, err := cells(kind, tab)
	if err != nil {
		return err
	}
	header, want, err := parseCSV(csvText)
	if err != nil {
		return fmt.Errorf("csv: %w", err)
	}
	if err := sameRow(header, cols); err != nil {
		return fmt.Errorf("header: %w", err)
	}
	if len(rows) != len(want) {
		return fmt.Errorf("%d decoded rows, csv has %d", len(rows), len(want))
	}
	for i := range want {
		if err := sameRow(want[i], rows[i]); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

func sameRow(want, got []string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("cell %d is %q, want %q", i, got[i], want[i])
		}
	}
	return nil
}

// monobitZ is the bound on the TRNG monobit statistic |ones - n/2| /
// (sqrt(n)/2): a fair bit stream exceeds 5 with probability below 6e-7.
const monobitZ = 5

// checkMonobit parses a TRNG hex dump ("0000  de ad be ef ...") and checks
// that it holds wantBytes bytes whose bits pass the monobit bound.
func checkMonobit(dump string, wantBytes int) error {
	var ones, n int
	for li, line := range strings.Split(strings.TrimSuffix(dump, "\n"), "\n") {
		off, rest, ok := strings.Cut(line, "  ")
		if !ok {
			return fmt.Errorf("line %d: malformed hex dump line %q", li, line)
		}
		if o, err := strconv.ParseUint(off, 16, 32); err != nil || int(o) != n/8 {
			return fmt.Errorf("line %d: offset %q, want %04x", li, off, n/8)
		}
		for _, tok := range strings.Fields(rest) {
			b, err := strconv.ParseUint(tok, 16, 8)
			if err != nil || len(tok) != 2 {
				return fmt.Errorf("line %d: bad byte %q", li, tok)
			}
			for ; b != 0; b &= b - 1 {
				ones++
			}
			n += 8
		}
	}
	if n != 8*wantBytes {
		return fmt.Errorf("%d bytes, want %d", n/8, wantBytes)
	}
	z := math.Abs(float64(2*ones-n)) / math.Sqrt(float64(n))
	if z > monobitZ {
		return fmt.Errorf("monobit: %d ones in %d bits (z = %.2f > %d)", ones, n, z, monobitZ)
	}
	return nil
}

// checkPages checks that columnar pages, decoded and concatenated in
// order, hold exactly the full stream's rows.
func checkPages(pages [][]byte, full []byte) error {
	want, err := colenc.Decode(full)
	if err != nil {
		return fmt.Errorf("decode full stream: %w", err)
	}
	wantCols, wantRows := want.Strings()
	var rows [][]string
	for i, p := range pages {
		t, err := colenc.Decode(p)
		if err != nil {
			return fmt.Errorf("decode page %d: %w", i, err)
		}
		cols, r := t.Strings()
		if err := sameRow(wantCols, cols); err != nil {
			return fmt.Errorf("page %d header: %w", i, err)
		}
		rows = append(rows, r...)
	}
	if len(rows) != len(wantRows) {
		return fmt.Errorf("pages hold %d rows, full stream %d", len(rows), len(wantRows))
	}
	for i := range rows {
		if err := sameRow(wantRows[i], rows[i]); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// checkBody checks a response body against the one set-up recorded.
func checkBody(want, got []byte) error {
	if !bytes.Equal(want, got) {
		return fmt.Errorf("body differs from set-up's at byte %d (%d bytes, want %d)",
			firstDiff(string(want), string(got)), len(got), len(want))
	}
	return nil
}

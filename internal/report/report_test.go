package report

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mediaworm"
	"mediaworm/internal/experiments"
)

func sampleFigure() *experiments.Figure {
	return &experiments.Figure{
		ID: "figX", Title: "sample", XLabel: "load",
		Series: []experiments.Series{
			{Label: "a", Points: []experiments.Point{
				{Load: 0.6, RTShare: 0.8, DMs: 33, SDMs: 0.25, BELatencyUs: 10, Samples: 100},
				{Load: 0.9, RTShare: 0.8, DMs: 33.2, SDMs: 5.5, BESaturated: true, Samples: 90},
			}},
			{Label: "b", Points: []experiments.Point{
				{Load: 0.6, RTShare: 0.8, DMs: 33, SDMs: 0.26, Samples: 100},
				{Load: 0.9, RTShare: 0.8, DMs: 34, SDMs: 8.0, Samples: 80},
			}},
		},
	}
}

func TestFigureCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := FigureCSV(sampleFigure(), &buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // header + 2 series × 2 points
		t.Fatalf("rows %d, want 5", len(rows))
	}
	if rows[0][0] != "series" || rows[0][1] != "load" {
		t.Fatalf("header %v", rows[0])
	}
	if rows[2][5] != "true" {
		t.Fatalf("saturation flag not serialized: %v", rows[2])
	}
	if rows[3][0] != "b" {
		t.Fatalf("series label lost: %v", rows[3])
	}
}

func TestFigureCSVMixAxis(t *testing.T) {
	fig := sampleFigure()
	fig.XIsMix = true
	var buf bytes.Buffer
	if err := FigureCSV(fig, &buf); err != nil {
		t.Fatal(err)
	}
	rows, _ := csv.NewReader(&buf).ReadAll()
	if rows[0][1] != "rt_share" {
		t.Fatalf("mix axis header %v", rows[0])
	}
	if rows[1][1] != "0.8" {
		t.Fatalf("mix value %v", rows[1])
	}
}

func TestTable2CSV(t *testing.T) {
	tab := &experiments.Table2{
		Mixes: []float64{0.2, 0.9},
		Loads: []float64{0.6, 0.9},
		Cells: [][]experiments.Point{
			{{BELatencyUs: 5}, {BELatencyUs: 40}},
			{{BELatencyUs: 9}, {BESaturated: true}},
		},
	}
	var buf bytes.Buffer
	if err := Table2CSV(tab, &buf); err != nil {
		t.Fatal(err)
	}
	rows, _ := csv.NewReader(&buf).ReadAll()
	if len(rows) != 3 {
		t.Fatalf("rows %d", len(rows))
	}
	if rows[2][2] != "sat" {
		t.Fatalf("saturated cell %v", rows[2])
	}
}

func TestTable3CSV(t *testing.T) {
	tab := &experiments.Table3{
		Loads: []float64{0.5},
		Rows:  []mediaworm.PCSResult{{Attempts: 10, Established: 7, Dropped: 3}},
	}
	var buf bytes.Buffer
	if err := Table3CSV(tab, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "10,7,3") {
		t.Fatalf("table3 csv:\n%s", out)
	}
}

func TestWriteFigureFile(t *testing.T) {
	dir := t.TempDir()
	path, err := WriteFigureFile(dir, sampleFigure())
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "figX.csv" {
		t.Fatalf("path %s", path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "series,load") {
		t.Fatalf("file contents: %s", data)
	}
	// Nested directory creation.
	if _, err := WriteFigureFile(filepath.Join(dir, "a/b"), sampleFigure()); err != nil {
		t.Fatal(err)
	}
}

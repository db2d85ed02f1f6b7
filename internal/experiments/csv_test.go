package experiments

import (
	"bytes"
	"encoding/csv"
	"testing"
	"time"
)

// csvShape checks that a result produces rectangular CSV with a header.
func csvShape(t *testing.T, name string, r CSVRows) {
	t.Helper()
	rows := r.CSV()
	if len(rows) < 1 {
		t.Fatalf("%s: no header", name)
	}
	width := len(rows[0])
	if width == 0 {
		t.Fatalf("%s: empty header", name)
	}
	for i, row := range rows {
		if len(row) != width {
			t.Fatalf("%s: row %d has %d cells, want %d", name, i, len(row), width)
		}
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatalf("%s: WriteCSV: %v", name, err)
	}
	parsed, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("%s: reparse: %v", name, err)
	}
	if len(parsed) != len(rows) {
		t.Fatalf("%s: reparsed %d rows, want %d", name, len(parsed), len(rows))
	}
}

func TestCSVExports(t *testing.T) {
	w := testWorkload(t)

	csvShape(t, "table2", Table2(w))

	t3, err := Table3(w, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	csvShape(t, "table3", t3)
	if got := len(t3.CSV()); got != 1+15*2 { // header + 15 rows × 2 parts × 1 m
		t.Errorf("table3 csv rows = %d", got)
	}

	t4, err := Table4(w, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	csvShape(t, "table4", t4)

	t5, err := Table5(w, []int{3}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	csvShape(t, "table5", t5)

	t6, err := Table6(w, []int{3}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	csvShape(t, "table6", t6)

	t7, err := Table7(w, 2, 3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	csvShape(t, "table7", t7)

	f5a, err := Figure5a(w, []float64{0.1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	csvShape(t, "figure5a", f5a)

	f6, err := Figure6(w, 0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	csvShape(t, "figure6", f6)

	f7, err := Figure7(w, 0, []int{3}, []int{3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	csvShape(t, "figure7", f7)

	f11, err := Figure11(w, 0, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	csvShape(t, "figure11", f11)

	csvShape(t, "hks", HkSStress(1, []int{8}, 3, 2, time.Second))

	pa, err := PassesAblation(w, 0, 3, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	csvShape(t, "passes", pa)
}

// Table 3 and Table 6 rows come out in one fixed order: per (row, m) the
// target_vs part first, then among — never in map iteration order, so two
// exports of one result are byte-identical even when the parts hold equal
// values.
func TestCSVPartOrderStable(t *testing.T) {
	cell := func(v float64) Table3Cell { return Table3Cell{Align: Alignment{R1: v, R2: v, RL: v}} }
	t3 := Table3Result{Ms: []int{3, 5}, Rows: []Table3Row{
		{Dataset: "Toy", Algorithm: "Crs", TargetVs: []Table3Cell{cell(1), cell(2)}, Among: []Table3Cell{cell(1), cell(2)}},
	}}
	t6 := Table6Result{Ks: []int{3}, Rows: []Table6Row{
		{Dataset: "Toy", Solver: "Random", TargetVs: []Alignment{{R1: 4}}, Among: []Alignment{{R1: 4}}},
	}}
	for _, r := range []struct {
		name string
		rows CSVRows
	}{{"table3", t3}, {"table6", t6}} {
		first := r.rows.CSV()
		for row := 1; row < len(first); row++ {
			want := "target_vs"
			if row%2 == 0 {
				want = "among"
			}
			if got := first[row][3]; got != want {
				t.Fatalf("%s row %d: part %q, want %q", r.name, row, got, want)
			}
		}
		for call := 0; call < 50; call++ {
			again := r.rows.CSV()
			for i := range first {
				for j := range first[i] {
					if again[i][j] != first[i][j] {
						t.Fatalf("%s call %d: row %d differs: %v vs %v", r.name, call, i, again[i], first[i])
					}
				}
			}
		}
	}
}

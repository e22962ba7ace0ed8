package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// testUsers keeps the experiment tests fast while exercising the full
// pipelines. golden_test.go pins every table's bytes at the same 3 users —
// the one regression gate on the tables; cmd/evrbench prints them at the
// full 59-user corpus.
const testUsers = 3

// parsePct parses "12.3%" into 12.3.
func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x"), 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}

func TestTableString(t *testing.T) {
	tb := Table{
		ID: "T", Title: "demo",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"x", "y"}},
		Notes:  []string{"n"},
	}
	s := tb.String()
	for _, want := range []string{"== T: demo ==", "a", "bb", "x", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFig3aShape(t *testing.T) {
	tb := Fig3a(testUsers)
	if len(tb.Rows) != 5 {
		t.Fatalf("Fig3a has %d rows, want 5 (power set)", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		p := parseF(t, row[1])
		if p < 4 || p > 6 {
			t.Errorf("%s power %v W outside the ~5 W band", row[0], p)
		}
		if d := parsePct(t, row[2]); d < 3 || d > 12 {
			t.Errorf("%s display share %v%%", row[0], d)
		}
	}
}

func TestFig3bShape(t *testing.T) {
	tb := Fig3b(testUsers)
	var rhino, paris float64
	for _, row := range tb.Rows {
		cm := parsePct(t, row[3])
		if cm < 25 || cm > 60 {
			t.Errorf("%s PT share %v%% outside [25, 60]", row[0], cm)
		}
		// PT exercises the SoC more than the DRAM (§3).
		if parsePct(t, row[1]) <= parsePct(t, row[2]) {
			t.Errorf("%s: PT compute share should exceed memory share", row[0])
		}
		switch row[0] {
		case "Rhino":
			rhino = cm
		case "Paris":
			paris = cm
		}
	}
	if rhino <= paris {
		t.Errorf("Rhino PT share (%v) should exceed Paris (%v)", rhino, paris)
	}
}

func TestFig5Shape(t *testing.T) {
	tb := Fig5(testUsers)
	if len(tb.Rows) != 5 {
		t.Fatalf("Fig5 rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		one := parseF(t, row[2])
		all := parseF(t, row[4])
		if one < 40 {
			t.Errorf("%s single-object coverage %v%% too low", row[0], one)
		}
		if all < 80 || all > 100 {
			t.Errorf("%s all-object coverage %v%%", row[0], all)
		}
		if all+1e-9 < one {
			t.Errorf("%s coverage not monotone", row[0])
		}
	}
}

func TestFig5CurveMonotone(t *testing.T) {
	curve := Fig5Curve("Paris", testUsers)
	if len(curve) != 13 {
		t.Fatalf("Paris curve has %d points", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1]-1e-9 {
			t.Fatal("coverage curve not monotone")
		}
	}
	if Fig5Curve("Nope", 1) != nil {
		t.Error("unknown video should give nil")
	}
}

func TestFig6Shape(t *testing.T) {
	tb := Fig6(testUsers)
	for _, row := range tb.Rows {
		prev := 101.0
		for _, cell := range row[1:] {
			v := parseF(t, cell)
			if v > prev+1e-9 {
				t.Fatalf("%s tracking CDF not non-increasing: %v", row[0], row)
			}
			prev = v
		}
	}
}

func TestFig11Shape(t *testing.T) {
	tb := Fig11()
	if len(tb.Rows) != 7 {
		t.Fatalf("Fig11 rows = %d", len(tb.Rows))
	}
	// Integer-starved columns must show large error; generous formats tiny
	// error. Compare 10% vs 40% share on the 48-bit row.
	var row48 []string
	for _, r := range tb.Rows {
		if r[0] == "48" {
			row48 = r
		}
	}
	starved, _ := strconv.ParseFloat(row48[1], 64)
	good, _ := strconv.ParseFloat(row48[4], 64)
	if starved < 1e-2 {
		t.Errorf("10%% integer share error %v suspiciously low", starved)
	}
	if good > 1e-3 {
		t.Errorf("40%% integer share error %v above threshold", good)
	}
}

func TestFig12Shape(t *testing.T) {
	tb := Fig12(testUsers)
	var sumS, sumH, sumSH float64
	for _, row := range tb.Rows {
		s, h, sh := parseF(t, row[1]), parseF(t, row[2]), parseF(t, row[3])
		if sh < h-1e-9 {
			t.Errorf("%s: S+H (%v) below H (%v)", row[0], sh, h)
		}
		sumS += s
		sumH += h
		sumSH += sh
		for _, c := range row[1:] {
			if v := parseF(t, c); v < 5 || v > 70 {
				t.Errorf("%s saving %v%% implausible", row[0], v)
			}
		}
	}
	n := float64(len(tb.Rows))
	if avg := sumSH / n; avg < 30 || avg > 55 {
		t.Errorf("S+H average compute saving %v%%, want ≈41%%", avg)
	}
	if sumH/n <= sumS/n-5 {
		t.Errorf("H average (%v) should not trail S (%v) substantially", sumH/n, sumS/n)
	}
}

func TestFig13Shape(t *testing.T) {
	tb := Fig13(testUsers)
	for _, row := range tb.Rows {
		if drop := parseF(t, row[1]); drop > 5 {
			t.Errorf("%s FPS drop %v%% over the 5%% perception bound", row[0], drop)
		}
		if bw := parseF(t, row[2]); bw < 0 || bw > 50 {
			t.Errorf("%s bandwidth saving %v%%", row[0], bw)
		}
	}
}

func TestFig14Shape(t *testing.T) {
	tb := Fig14(testUsers)
	if len(tb.Rows) != 20 {
		t.Fatalf("Fig14 rows = %d, want 5 videos x 4 utilizations", len(tb.Rows))
	}
	// Per video: storage overhead and savings non-decreasing in utilization.
	for v := 0; v < 5; v++ {
		rows := tb.Rows[v*4 : v*4+4]
		for i := 1; i < 4; i++ {
			if parseF(t, rows[i][2]) < parseF(t, rows[i-1][2])-1e-9 {
				t.Errorf("%s: storage overhead decreased with utilization", rows[i][0])
			}
			if parseF(t, rows[i][3]) < parseF(t, rows[i-1][3])-2.0 {
				t.Errorf("%s: energy saving dropped sharply with utilization", rows[i][0])
			}
		}
	}
}

func TestFig15Shape(t *testing.T) {
	tb := Fig15(testUsers)
	for _, row := range tb.Rows {
		liveDev := parseF(t, row[2])
		offDev := parseF(t, row[4])
		if offDev <= liveDev {
			t.Errorf("%s: offline device saving (%v) should exceed live (%v)", row[0], offDev, liveDev)
		}
		if cm := parseF(t, row[1]); cm < 20 || cm > 50 {
			t.Errorf("%s live compute saving %v%%", row[0], cm)
		}
	}
}

func TestFig16Shape(t *testing.T) {
	tb := Fig16(testUsers)
	for _, row := range tb.Rows {
		sh := parseF(t, row[1])
		perfect := parseF(t, row[2])
		ideal := parseF(t, row[3])
		if sh <= perfect {
			t.Errorf("%s: S+H (%v) should beat perfect HMP (%v) — predictor overhead", row[0], sh, perfect)
		}
		if ideal <= sh {
			t.Errorf("%s: zero-overhead HMP (%v) should beat S+H (%v)", row[0], ideal, sh)
		}
	}
}

func TestFig17Shape(t *testing.T) {
	tb := Fig17()
	if len(tb.Rows) != 4 {
		t.Fatalf("Fig17 rows = %d", len(tb.Rows))
	}
	for col := 1; col <= 3; col++ {
		prev := 101.0
		for _, row := range tb.Rows {
			v := parseF(t, row[col])
			if v >= prev {
				t.Fatalf("column %d not decreasing with resolution", col)
			}
			prev = v
		}
	}
	if top := parseF(t, tb.Rows[0][1]); top < 30 || top > 55 {
		t.Errorf("lowest-resolution reduction %v%%, want ≈40%%", top)
	}
}

func TestPrototypeTable(t *testing.T) {
	tb := PrototypeTable()
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d, want FPGA + ASIC", len(tb.Rows))
	}
	fpga := tb.Rows[0]
	if fpga[1] != "2" || fpga[2] != "100 MHz" || fpga[3] != "194 mW" {
		t.Errorf("prototype row = %v", fpga)
	}
	fps := parseF(t, fpga[6])
	if fps < 45 || fps > 60 {
		t.Errorf("prototype FPS %v, want ≈50", fps)
	}
	asic := tb.Rows[1]
	if parseF(t, asic[6]) <= fps {
		t.Errorf("ASIC FPS %v not above FPGA %v", asic[6], fps)
	}
}

func TestMissRateTable(t *testing.T) {
	tb := MissRateTable(testUsers)
	rates := map[string]float64{}
	for _, row := range tb.Rows {
		rates[row[0]] = parsePct(t, row[1])
	}
	if rates["Timelapse"] >= rates["RS"] {
		t.Errorf("Timelapse miss (%v) should be below RS (%v)", rates["Timelapse"], rates["RS"])
	}
	for v, r := range rates {
		if r < 0.5 || r > 25 {
			t.Errorf("%s miss rate %v%% outside plausible band", v, r)
		}
	}
}

func TestAllRunsEverything(t *testing.T) {
	tables := All(2)
	if len(tables) != 13 {
		t.Fatalf("All returned %d tables, want 13", len(tables))
	}
	seen := map[string]bool{}
	for _, tb := range tables {
		if tb.ID == "" || len(tb.Rows) == 0 {
			t.Errorf("table %q is empty", tb.Title)
		}
		if seen[tb.ID] {
			t.Errorf("duplicate table %q", tb.ID)
		}
		seen[tb.ID] = true
	}
}

func TestTableCSVAndFileStem(t *testing.T) {
	tb := Table{ID: "Fig 12", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}}}
	csv := tb.CSV()
	if len(csv) != 2 || csv[0][0] != "a" || csv[1][1] != "2" {
		t.Errorf("CSV = %v", csv)
	}
	// Mutating the CSV must not touch the table.
	csv[1][1] = "zzz"
	if tb.Rows[0][1] != "2" {
		t.Error("CSV aliased table storage")
	}
	if tb.FileStem() != "fig_12" {
		t.Errorf("FileStem = %q", tb.FileStem())
	}
	if (Table{ID: "§8.2"}).FileStem() != "sec8_2" {
		t.Errorf("section stem = %q", Table{ID: "§8.2"}.FileStem())
	}
}

func TestMarkdownRendering(t *testing.T) {
	tb := Table{
		ID: "Fig X", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "2"}},
		Notes:  []string{"a note"},
	}
	md := tb.Markdown()
	for _, want := range []string{"### Fig X — demo", "| a | b |", "| 1 | 2 |", "> a note"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestWriteReport(t *testing.T) {
	var b strings.Builder
	if err := WriteReport(&b, 2, false); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# EVR experiment report") {
		t.Error("missing title")
	}
	for _, id := range []string{"Fig 3a", "Fig 12", "Fig 17", "§8.2"} {
		if !strings.Contains(out, id) {
			t.Errorf("report missing %s", id)
		}
	}
}

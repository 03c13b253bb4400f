package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// The experiment pipeline is advertised as bit-for-bit reproducible: fixed
// seeds, no map-order leaks, no wall-clock dependence. These golden tests
// hold it to that. Regenerate with:
//
//	go test ./internal/experiments -run TestGolden -update

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: output drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenFig5(t *testing.T) {
	res, err := Fig5(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig5.txt", b.Bytes())
}

func TestGoldenFig6(t *testing.T) {
	res, err := Fig6(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig6.txt", b.Bytes())
}

func TestGoldenFig7(t *testing.T) {
	res, err := Fig7(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig7.txt", b.Bytes())
}

func TestGoldenFig8(t *testing.T) {
	res, err := Fig8(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig8.txt", b.Bytes())
}

func TestGoldenTable1(t *testing.T) {
	rows, err := Table1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := RenderTable1(rows, &b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1.txt", b.Bytes())
}

func TestGoldenAStar(t *testing.T) {
	rows, err := AStarStudy(AStarOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := RenderAStar(rows, &b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "astar.txt", b.Bytes())
}

// TestGoldenAStarBnB extends the feasibility study past the classic memory
// wall: branch-and-bound rows at every size up to 12 unique functions. The
// default study (and its golden file) is untouched — BnB rows only appear
// when BnBMaxFuncs is set.
func TestGoldenAStarBnB(t *testing.T) {
	if testing.Short() {
		t.Skip("the 10-12 function searches take seconds")
	}
	rows, err := AStarStudy(AStarOptions{BnBMaxFuncs: 12})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := RenderSearchFrontier(rows, &b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "astar_bnb.txt", b.Bytes())
}

// TestGoldenAStarExact is the oracle frontier: exact rows out to fourteen
// unique functions next to the bnb rows. Twelve is certified under the
// documented frontierExactMaxNodes budget, thirteen exposes the current
// wall, fourteen certifies again — the frontier is instance-shaped, not
// monotone in size. The cross-checks at the end of AStarStudy double as the
// oracle-agreement gate for every completed A*/IDA*/bnb row.
func TestGoldenAStarExact(t *testing.T) {
	if testing.Short() {
		t.Skip("the twelve-plus function terminal probes take tens of seconds")
	}
	rows, err := AStarStudy(AStarOptions{BnBMaxFuncs: 12, ExactMaxFuncs: 14})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := RenderSearchFrontier(rows, &b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "astar_exact.txt", b.Bytes())
}

func TestGoldenPriority(t *testing.T) {
	rows, err := PriorityStudy(Options{})
	if err != nil {
		t.Fatal(err)
	}
	sat, err := SaturationStudy()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := RenderPriority("priority", append(rows, sat...), &b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "priority.txt", b.Bytes())
}

func TestGoldenPredict(t *testing.T) {
	rows, err := PredictStudy(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := RenderPredict(rows, &b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "predict.txt", b.Bytes())
}

func TestGoldenInterp(t *testing.T) {
	rows, err := InterpreterStudy(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := RenderInterp(rows, &b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "interp.txt", b.Bytes())
}

func TestGoldenInline(t *testing.T) {
	rows, err := InlineStudy(0)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := RenderInline(rows, &b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "inline.txt", b.Bytes())
}

func TestGoldenVariation(t *testing.T) {
	rows, err := VariationStudy(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := RenderVariation(rows, &b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "variation.txt", b.Bytes())
}

func TestGoldenMT(t *testing.T) {
	rows, err := MTStudy(Options{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := RenderMT(rows, &b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "mt.txt", b.Bytes())
}

// TestGoldenOnline pins the regret-vs-window figure: the streaming corpus,
// the window ladder, and every scheduler's regret against offline IAR. The
// unbounded IAR rows must show exactly 0.00 regret — the backbone
// invariant surfacing in the figure itself.
func TestGoldenOnline(t *testing.T) {
	rows, err := OnlineStudy(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Scheduler == "iar" && r.Window == 0 && r.Regret != 0 {
			t.Errorf("%s: unbounded online IAR has regret %.4f%%, want exactly 0", r.Spec, r.Regret)
		}
	}
	var b bytes.Buffer
	if err := RenderOnline(rows, &b); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "online.txt", b.Bytes())
}

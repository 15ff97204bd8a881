package netcheck

import (
	"errors"
	"strings"
	"testing"
)

const goodDesign = `{
  "node": "0.25",
  "j0MA": 1.8,
  "gap": "HSQ",
  "segments": [
    {"net": "clk", "name": "s1", "level": 6, "widthMultiple": 2,
     "lengthUm": 3000,
     "waveform": {"kind": "bipolar", "peakMA": 2.0, "dutyCycle": 0.12}},
    {"net": "vdd", "name": "strap", "level": 5,
     "lengthUm": 2000,
     "waveform": {"kind": "dc", "amps": 0.001}},
    {"net": "io", "name": "u1", "level": 5, "widthMultiple": 1,
     "lengthUm": 500,
     "waveform": {"kind": "unipolar", "peakMA": 3, "dutyCycle": 0.2}}
  ]
}`

func TestLoadDesignAndCheck(t *testing.T) {
	deck, segs, err := LoadDesign(strings.NewReader(goodDesign))
	if err != nil {
		t.Fatal(err)
	}
	if deck.Tech.Gap.Name != "HSQ" {
		t.Errorf("gap fill = %s", deck.Tech.Gap.Name)
	}
	if len(segs) != 3 {
		t.Fatalf("got %d segments", len(segs))
	}
	// Default width multiple applied.
	if segs[1].WidthMultiple != 1 {
		t.Error("default widthMultiple should be 1")
	}
	rep, err := Check(Config{Deck: deck}, segs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 3 {
		t.Fatalf("findings: %d", len(rep.Findings))
	}
	// The clk segment is healthy.
	if rep.ByNet["clk"] != Pass {
		t.Errorf("clk verdict %v:\n%s", rep.ByNet["clk"], rep.Format())
	}
}

func TestLoadDesignErrors(t *testing.T) {
	bad := []string{
		`{`,                                      // malformed JSON
		`{"node": "45nm", "segments": []}`,       // unknown node
		`{"node": "0.25", "gap": "teflon"}`,      // unknown dielectric
		`{"node": "0.25", "metal": "gold"}`,      // unknown metal
		`{"node": "0.25", "unknownField": true}`, // schema violation
		`{"segments": []}`,                       // missing node
		`{"node": "0.25", "segments": [
		   {"net":"n","name":"s","level":99,"lengthUm":10,
		    "waveform":{"kind":"dc","amps":1}}]}`, // bad level
		`{"node": "0.25", "segments": [
		   {"net":"n","name":"s","level":5,"lengthUm":10,
		    "waveform":{"kind":"triangle"}}]}`, // bad waveform kind
		`{"node": "0.25", "segments": [
		   {"net":"n","name":"s","level":5,"lengthUm":10,
		    "waveform":{"kind":"bipolar","peakMA":1,"dutyCycle":2}}]}`, // bad duty cycle
	}
	for i, s := range bad {
		if _, _, err := LoadDesign(strings.NewReader(s)); err == nil {
			t.Errorf("design %d should fail", i)
		}
	}
	// Technology selector failures keep the engine's sentinel.
	for _, s := range []string{bad[1], bad[2], bad[3], bad[5]} {
		if _, _, err := LoadDesign(strings.NewReader(s)); !errors.Is(err, ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", s, err)
		}
	}
}

func TestLoadDesignMetalSwap(t *testing.T) {
	design := `{"node": "0.10", "metal": "AlCu", "segments": []}`
	deck, _, err := LoadDesign(strings.NewReader(design))
	if err != nil {
		t.Fatal(err)
	}
	if deck.Tech.Metal.Name != "AlCu" {
		t.Errorf("metal = %s", deck.Tech.Metal.Name)
	}
}

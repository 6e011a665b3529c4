package viz

import (
	"encoding/xml"
	"strings"
	"testing"
)

func sampleChart() *LineChart {
	return &LineChart{
		Title:  "Makespan vs budget — test",
		XLabel: "budget [$]",
		YLabel: "makespan [s]",
		Series: []Series{
			{Name: "heft", Slot: 2, Points: []Point{{X: 1, Y: 300}, {X: 2, Y: 200, Spread: 12}, {X: 3, Y: 150}}},
			{Name: "heftbudg", Slot: 4, Points: []Point{{X: 1, Y: 900}, {X: 2, Y: 400}, {X: 3, Y: 160}}},
		},
		Refs: []RefPoint{{Label: "min_cost", X: 1, Y: 2000}},
	}
}

func TestRenderSVGWellFormed(t *testing.T) {
	var b strings.Builder
	if err := sampleChart().RenderSVG(&b); err != nil {
		t.Fatal(err)
	}
	// Must be parseable XML end to end.
	dec := xml.NewDecoder(strings.NewReader(b.String()))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			t.Fatalf("invalid XML: %v", err)
		}
	}
}

func TestRenderSVGContract(t *testing.T) {
	var b strings.Builder
	if err := sampleChart().RenderSVG(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	checks := map[string]string{
		"surface rect":       `fill="` + surface + `"`,
		"2px line stroke":    `stroke-width="2" stroke-linecap="round"`,
		"series color aqua":  SlotColor(2),
		"series color green": SlotColor(4),
		"marker tooltip":     "<title>heft — x 2: 200 ± 12</title>",
		"legend heft":        ">heft</text>",
		"legend heftbudg":    ">heftbudg</text>",
		"min_cost ref":       ">min_cost</text>",
		"hairline grid":      `stroke="` + gridColor + `" stroke-width="1"`,
		"x axis label":       ">budget [$]</text>",
	}
	for what, want := range checks {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s (%q)", what, want)
		}
	}
	// Ink never wears the series color: every <text> uses ink tokens.
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "<text") {
			continue
		}
		if strings.Contains(line, SlotColor(2)) || strings.Contains(line, SlotColor(4)) {
			t.Errorf("text wears a series color: %s", line)
		}
	}
}

func TestRenderSVGSingleSeriesNoLegend(t *testing.T) {
	c := sampleChart()
	c.Series = c.Series[:1]
	c.Refs = nil
	var b strings.Builder
	if err := c.RenderSVG(&b); err != nil {
		t.Fatal(err)
	}
	// A single series needs no legend box: the title names it. The
	// only textual occurrence of the name is its direct end label.
	if n := strings.Count(b.String(), ">heft</text>"); n != 1 {
		t.Errorf("%d name labels for a single series, want 1 (end label only)", n)
	}
}

func TestRenderSVGRejectsBadData(t *testing.T) {
	c := &LineChart{Title: "empty"}
	var b strings.Builder
	if err := c.RenderSVG(&b); err == nil {
		t.Error("empty chart accepted")
	}
	c = sampleChart()
	c.LogY = true
	c.Series[0].Points[0].Y = 0
	if err := c.RenderSVG(&b); err == nil {
		t.Error("log scale with zero accepted")
	}
}

func TestEscape(t *testing.T) {
	c := sampleChart()
	c.Title = `<script>&"`
	var b strings.Builder
	if err := c.RenderSVG(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "<script>") {
		t.Error("title not escaped")
	}
}

func TestLinTicks(t *testing.T) {
	ticks := linTicks(0, 100, 5)
	if len(ticks) < 3 || ticks[0] != 0 || ticks[len(ticks)-1] != 100 {
		t.Errorf("ticks %v", ticks)
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i] <= ticks[i-1] {
			t.Fatalf("non-increasing ticks %v", ticks)
		}
	}
	if got := linTicks(5, 5, 5); len(got) != 1 {
		t.Errorf("degenerate ticks %v", got)
	}
}

func TestFormatTick(t *testing.T) {
	cases := map[float64]string{
		12345:  "12,345",
		250:    "250",
		2.5:    "2.5",
		0.0468: "0.0468",
		0:      "0",
	}
	for in, want := range cases {
		if got := formatTick(in); got != want {
			t.Errorf("formatTick(%v) = %q, want %q", in, got, want)
		}
	}
}

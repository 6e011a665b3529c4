package pool

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/ from this run")

// TestGoldenTrace pins testTrace()'s decision log and every outcome —
// hosted Reports included — byte for byte, under two billing quanta.
// Floats render in their shortest round-trip form (Decision.String's %v,
// encoding/json), so the text pins every bit.
func TestGoldenTrace(t *testing.T) {
	for _, quantum := range []float64{3600, 600} {
		res, err := RunTrace(Config{Platform: testPlatform(quantum), Policy: testPolicy(), Seed: 7}, testTrace(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		b.WriteString(renderDecisions(res.Decisions))
		for _, o := range res.Outcomes {
			line, err := json.Marshal(o)
			if err != nil {
				t.Fatal(err)
			}
			b.Write(line)
			b.WriteByte('\n')
		}
		path := filepath.Join("testdata", fmt.Sprintf("trace_q%d.txt", int(quantum)))
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
		if len(got) != len(wantLines) {
			t.Fatalf("%s: %d lines, want %d", path, len(got), len(wantLines))
		}
		for i := range got {
			if got[i] != wantLines[i] {
				t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, got[i], wantLines[i])
			}
		}
	}
}

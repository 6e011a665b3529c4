package wfgen

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"budgetwf/internal/wf"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/generate.txt from this run")

// allTypes is every family Generate accepts.
var allTypes = []Type{CyberShake, Ligo, Montage, Epigenomics, Sipht, Random, Chain, ForkJoin, BagOfTasks}

// contentDigest hashes the workflow's name, every task name and
// AppendContent, so it moves with any change to what a generator
// builds, labels included.
func contentDigest(w *wf.Workflow) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s", len(w.Name), w.Name)
	for _, t := range w.TasksView() {
		fmt.Fprintf(h, "%d:%s", len(t.Name), t.Name)
	}
	h.Write(w.AppendContent(nil))
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestGenerateGolden pins every family at n = 30, 90 and 1000 and seeds
// 0–4 to the digests in testdata/generate.txt.
func TestGenerateGolden(t *testing.T) {
	var b strings.Builder
	for _, typ := range allTypes {
		for _, n := range []int{30, 90, 1000} {
			for seed := uint64(0); seed < 5; seed++ {
				w, err := Generate(typ, n, seed)
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", typ, n, seed, err)
				}
				fmt.Fprintf(&b, "%s %d %d %s\n", typ, n, seed, contentDigest(w))
			}
		}
	}
	path := filepath.Join("testdata", "generate.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines, gotLines := strings.Split(string(want), "\n"), strings.Split(b.String(), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d digests, want %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if wantLines[i] != gotLines[i] {
			t.Errorf("got %q, want %q", gotLines[i], wantLines[i])
		}
	}
}

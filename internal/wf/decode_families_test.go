package wf_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// TestDecodeTakesFastPathOnFamilies: the WriteJSON output of every
// paper family, indented as written and compacted as a request body
// embeds it, takes the one-pass path, and decodes to the workflow that
// was written.
func TestDecodeTakesFastPathOnFamilies(t *testing.T) {
	for _, typ := range wfgen.AllPaperTypes() {
		w, err := wfgen.Generate(typ, 90, 3)
		if err != nil {
			t.Fatal(err)
		}
		w = w.WithSigmaRatio(0.5)
		var indented, compact bytes.Buffer
		if err := w.WriteJSON(&indented); err != nil {
			t.Fatal(err)
		}
		if err := json.Compact(&compact, indented.Bytes()); err != nil {
			t.Fatal(err)
		}
		for name, doc := range map[string][]byte{"indented": indented.Bytes(), "compact": compact.Bytes()} {
			if !wf.TakesFastPath(doc) {
				t.Errorf("%s %s: the one-pass path declined", typ, name)
				continue
			}
			got, err := wf.Decode(doc)
			if err != nil {
				t.Fatalf("%s %s: %v", typ, name, err)
			}
			if got.CanonicalHash() != w.CanonicalHash() || got.Name != w.Name {
				t.Errorf("%s %s: decoded workflow differs from the one written", typ, name)
			}
		}
	}
}

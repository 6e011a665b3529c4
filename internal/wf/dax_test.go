package wf

import (
	"os"
	"strings"
	"testing"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// sampleDAX is a 4-job diamond in Pegasus DAX v3 syntax: preprocess
// feeds two parallel findrange jobs, which feed analyze.
const sampleDAX = `<?xml version="1.0" encoding="UTF-8"?>
<adag xmlns="http://pegasus.isi.edu/schema/DAX" version="3.4" name="blackdiamond" jobCount="4">
  <job id="ID0000001" name="preprocess" runtime="30.5">
    <uses file="f.input" link="input" size="1000000"/>
    <uses file="f.b1" link="output" size="400000"/>
    <uses file="f.b2" link="output" size="600000"/>
  </job>
  <job id="ID0000002" name="findrange" runtime="60">
    <uses file="f.b1" link="input" size="400000"/>
    <uses file="f.c1" link="output" size="200000"/>
  </job>
  <job id="ID0000003" name="findrange" runtime="62">
    <uses file="f.b2" link="input" size="600000"/>
    <uses file="f.c2" link="output" size="300000"/>
  </job>
  <job id="ID0000004" name="analyze" runtime="15">
    <uses file="f.c1" link="input" size="200000"/>
    <uses file="f.c2" link="input" size="300000"/>
    <uses file="f.output" link="output" size="50000"/>
  </job>
  <child ref="ID0000002"><parent ref="ID0000001"/></child>
  <child ref="ID0000003"><parent ref="ID0000001"/></child>
  <child ref="ID0000004">
    <parent ref="ID0000002"/>
    <parent ref="ID0000003"/>
  </child>
</adag>`

func TestReadDAX(t *testing.T) {
	w, err := ReadDAX(strings.NewReader(sampleDAX))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "blackdiamond" {
		t.Errorf("name %q", w.Name)
	}
	if w.NumTasks() != 4 || w.NumEdges() != 4 {
		t.Fatalf("%d tasks, %d edges", w.NumTasks(), w.NumEdges())
	}
	// Runtimes converted at 1e9 instr/s.
	if got := w.Task(0).Weight.Mean; got != 30.5e9 {
		t.Errorf("preprocess weight %v", got)
	}
	// Edge sizes from the shared files.
	sizes := map[[2]TaskID]float64{}
	for _, e := range w.Edges() {
		sizes[[2]TaskID{e.From, e.To}] = e.Size
	}
	want := map[[2]TaskID]float64{
		{0, 1}: 400000, {0, 2}: 600000, {1, 3}: 200000, {2, 3}: 300000,
	}
	for k, v := range want {
		if sizes[k] != v {
			t.Errorf("edge %v size %v, want %v", k, sizes[k], v)
		}
	}
	// External I/O.
	if got := w.Task(0).ExternalIn; got != 1000000 {
		t.Errorf("external in %v", got)
	}
	if got := w.Task(3).ExternalOut; got != 50000 {
		t.Errorf("external out %v", got)
	}
	if w.ExternalInSize() != 1000000 || w.ExternalOutSize() != 50000 {
		t.Error("workflow-level external totals wrong")
	}
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadDAXErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          `<adag name="x"></adag>`,
		"not xml":        `{"name": "nope"}`,
		"bad runtime":    `<adag name="x"><job id="a" name="j" runtime="0"/></adag>`,
		"dup id":         `<adag name="x"><job id="a" name="j" runtime="1"/><job id="a" name="k" runtime="1"/></adag>`,
		"unknown child":  `<adag name="x"><job id="a" name="j" runtime="1"/><child ref="zz"><parent ref="a"/></child></adag>`,
		"unknown parent": `<adag name="x"><job id="a" name="j" runtime="1"/><child ref="a"><parent ref="zz"/></child></adag>`,
		"negative size":  `<adag name="x"><job id="a" name="j" runtime="1"><uses file="f" link="input" size="-1"/></job></adag>`,
		"cycle": `<adag name="x"><job id="a" name="j" runtime="1"/><job id="b" name="k" runtime="1"/>
			<child ref="a"><parent ref="b"/></child><child ref="b"><parent ref="a"/></child></adag>`,
	}
	for name, doc := range cases {
		if _, err := ReadDAX(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadDAXFile(t *testing.T) {
	path := t.TempDir() + "/w.dax"
	if err := writeFile(path, sampleDAX); err != nil {
		t.Fatal(err)
	}
	w, err := LoadDAX(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.NumTasks() != 4 {
		t.Error("load lost jobs")
	}
	if _, err := LoadDAX(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

// TestLoadDispatchesOnSuffix: Load reads .dax and .xml files as DAX
// and anything else as JSON.
func TestLoadDispatchesOnSuffix(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"w.dax", "w.xml"} {
		if err := writeFile(dir+"/"+name, sampleDAX); err != nil {
			t.Fatal(err)
		}
		if w, err := Load(dir + "/" + name); err != nil || w.NumTasks() != 4 {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := writeFile(dir+"/w.json", sampleDAX); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir + "/w.json"); err == nil {
		t.Error("DAX document read as JSON")
	}
	w, err := ReadDAX(strings.NewReader(sampleDAX))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SaveFile(dir + "/w.json"); err != nil {
		t.Fatal(err)
	}
	if got, err := Load(dir + "/w.json"); err != nil || got.NumTasks() != 4 {
		t.Errorf("w.json: %v", err)
	}
}

func TestDAXDependencyWithoutSharedFile(t *testing.T) {
	// A control dependency with no data: edge of size 0.
	doc := `<adag name="x">
	  <job id="a" name="j" runtime="1"/>
	  <job id="b" name="k" runtime="1"/>
	  <child ref="b"><parent ref="a"/></child>
	</adag>`
	w, err := ReadDAX(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if w.NumEdges() != 1 || w.Edges()[0].Size != 0 {
		t.Errorf("edges %v", w.Edges())
	}
}

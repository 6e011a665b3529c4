package wf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"budgetwf/internal/stoch"
)

// jsonWorkflow is the on-disk representation, a simplified analogue of
// the Pegasus DAX format with stochastic weights.
type jsonWorkflow struct {
	Name  string     `json:"name"`
	Tasks []jsonTask `json:"tasks"`
	Edges []jsonEdge `json:"edges"`
}

type jsonTask struct {
	Name        string  `json:"name"`
	Mean        float64 `json:"mean"`
	Sigma       float64 `json:"sigma"`
	ExternalIn  float64 `json:"externalIn,omitempty"`
	ExternalOut float64 `json:"externalOut,omitempty"`
}

type jsonEdge struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Size float64 `json:"size"`
}

// WriteJSON serializes the workflow to w in a stable, human-readable
// format. Task order is ID order, edge order is insertion order.
func (wf *Workflow) WriteJSON(w io.Writer) error {
	jw := jsonWorkflow{Name: wf.Name}
	for _, t := range wf.tasks {
		jw.Tasks = append(jw.Tasks, jsonTask{
			Name:        t.Name,
			Mean:        t.Weight.Mean,
			Sigma:       t.Weight.Sigma,
			ExternalIn:  t.ExternalIn,
			ExternalOut: t.ExternalOut,
		})
	}
	for _, e := range wf.edges {
		jw.Edges = append(jw.Edges, jsonEdge{From: int(e.From), To: int(e.To), Size: e.Size})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jw)
}

// ReadJSON reads a workflow previously produced by WriteJSON (or
// hand-written in the same format) to the end and decodes and
// validates it with Decode.
func ReadJSON(r io.Reader) (*Workflow, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("wf: decoding workflow: %w", err)
	}
	return Decode(b)
}

// decodeReflect is the encoding/json decoder Decode falls back on
// whenever its one-pass path declines; that path's fuzz test holds it
// to this one. Like any json.Decoder it reads the first JSON value and
// ignores what follows.
func decodeReflect(b []byte) (*Workflow, error) {
	var jw jsonWorkflow
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jw); err != nil {
		return nil, fmt.Errorf("wf: decoding workflow: %w", err)
	}
	out := New(jw.Name)
	for _, t := range jw.Tasks {
		id := out.AddTask(t.Name, stoch.Dist{Mean: t.Mean, Sigma: t.Sigma})
		if err := out.SetExternalIO(id, t.ExternalIn, t.ExternalOut); err != nil {
			return nil, err
		}
	}
	for _, e := range jw.Edges {
		if err := out.AddEdge(TaskID(e.From), TaskID(e.To), e.Size); err != nil {
			return nil, err
		}
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return out, nil
}

// SaveFile writes the workflow to the named file.
func (wf *Workflow) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := wf.WriteJSON(f); err != nil {
		return err
	}
	return f.Close()
}

// Load reads a workflow from the named file: a Pegasus DAX document
// when the name ends in .dax or .xml, the JSON format otherwise.
func Load(path string) (*Workflow, error) {
	if strings.HasSuffix(path, ".dax") || strings.HasSuffix(path, ".xml") {
		return LoadDAX(path)
	}
	return LoadFile(path)
}

// LoadFile reads and validates a workflow from the named file.
func LoadFile(path string) (*Workflow, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(b)
}

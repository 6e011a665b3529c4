// Package wfgen generates benchmark workflows. The paper evaluates on
// three families from the Pegasus benchmark suite — CYBERSHAKE, LIGO
// and MONTAGE — produced by the Pegasus workflow generator. That
// generator (and its trace archive) is unavailable offline, so this
// package re-implements the three families from their published
// structural descriptions: the paper's own §V-A prose and the
// profiles in Juve et al., "Characterizing and profiling scientific
// workflows" (FGCS 2013). DESIGN.md §2 documents the substitution.
//
// Every generator is deterministic in (type, size, seed): the paper
// uses five instances per (type, size) pair, which we obtain with
// seeds 0..4. Generated workflows carry σ = 0; experiments instantiate
// uncertainty afterwards with Workflow.WithSigmaRatio, matching the
// paper's methodology ("each generated workflow is then re-used to
// generate workflows having the same DAG structure" with varying σ).
package wfgen

import (
	"fmt"
	"strconv"
	"strings"

	"budgetwf/internal/rng"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
)

// Type identifies a workflow family.
type Type string

// The three Pegasus families used in the paper, plus generic synthetic
// families used by tests and extensions.
const (
	CyberShake Type = "cybershake"
	Ligo       Type = "ligo"
	Montage    Type = "montage"
	Random     Type = "random"
	Chain      Type = "chain"
	ForkJoin   Type = "forkjoin"
	BagOfTasks Type = "bagoftasks"
)

// AllPaperTypes lists the families evaluated in the paper, in the
// order they appear in the figures.
func AllPaperTypes() []Type { return []Type{CyberShake, Ligo, Montage} }

// refSpeed is the speed of the reference machine on which the
// published per-job runtimes were measured; a weight is
// runtime(seconds) × refSpeed instructions.
const refSpeed = 1e9

// mb and gb are data-size units in bytes.
const (
	mb = 1e6
	gb = 1e9
)

// Generate builds one workflow instance of the given family with
// (approximately, and for the paper families exactly) n tasks.
func Generate(t Type, n int, seed uint64) (*wf.Workflow, error) {
	if n < 4 {
		return nil, fmt.Errorf("wfgen: need at least 4 tasks, got %d", n)
	}
	gen, ok := generators[t]
	if !ok {
		return nil, fmt.Errorf("wfgen: unknown workflow type %q", t)
	}
	w, err := gen(n, rng.New(seed^typeSalt(t)))
	if err != nil {
		return nil, err
	}
	w.Name = instanceName(t, n, seed)
	if err := w.Validate(); err != nil {
		return nil, fmt.Errorf("wfgen: generated invalid workflow: %w", err)
	}
	if w.NumTasks() != n {
		return nil, fmt.Errorf("wfgen: %s generator produced %d tasks, want %d", t, w.NumTasks(), n)
	}
	return w, nil
}

// MustGenerate is Generate that panics on error, for tests and
// benchmarks with known-good parameters.
func MustGenerate(t Type, n int, seed uint64) *wf.Workflow {
	w, err := Generate(t, n, seed)
	if err != nil {
		panic(err)
	}
	return w
}

// Load returns the workflow that the commands' -wf and generator flags
// name: the file at path (Pegasus DAX when it ends in .dax or .xml,
// JSON otherwise) or, when path is empty, the generated instance of
// family typ with n tasks and the given seed, with σ = sigma·w̄.
func Load(path, typ string, n int, seed uint64, sigma float64) (*wf.Workflow, error) {
	if path != "" {
		return wf.Load(path)
	}
	t, err := ParseType(typ)
	if err != nil {
		return nil, err
	}
	w, err := Generate(t, n, seed)
	if err != nil {
		return nil, err
	}
	return w.WithSigmaRatio(sigma), nil
}

// generators maps every family to its generator.
var generators = map[Type]func(n int, r *rng.RNG) (*wf.Workflow, error){
	CyberShake: genCyberShake, Ligo: genLigo, Montage: genMontage,
	Epigenomics: genEpigenomics, Sipht: genSipht, Random: genRandomLayered,
	Chain: genChain, ForkJoin: genForkJoin, BagOfTasks: genBagOfTasks,
}

// ParseType converts a user-supplied string to a Type.
func ParseType(s string) (Type, error) {
	t := Type(strings.ToLower(strings.TrimSpace(s)))
	if _, ok := generators[t]; !ok {
		return "", fmt.Errorf("wfgen: unknown workflow type %q", s)
	}
	return t, nil
}

func typeSalt(t Type) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(t); i++ {
		h ^= uint64(t[i])
		h *= 1099511628211
	}
	return h
}

// instanceName is "<TYPE>-<n>-seed<seed>", in one allocation. t is
// lower-case ASCII, as ParseType leaves it.
func instanceName(t Type, n int, seed uint64) string {
	var buf [64]byte
	b := buf[:0]
	for i := 0; i < len(t); i++ {
		b = append(b, t[i]-'a'+'A')
	}
	b = strconv.AppendInt(append(b, '-'), int64(n), 10)
	b = strconv.AppendUint(append(b, "-seed"...), seed, 10)
	return string(b)
}

// namer cuts the task names of one workflow from one buffer. Grown
// once to a bound on their total length, the builder never moves, so
// each String shares its bytes and a name costs no allocation.
type namer struct{ b strings.Builder }

// newNamer returns a namer for n names, none longer than prefix
// followed by two indices below n.
func newNamer(n int, prefix string) *namer {
	var buf [20]byte
	nm := new(namer)
	nm.b.Grow(n * (len(prefix) + 2*len(strconv.AppendInt(buf[:0], int64(n), 10)) + 1))
	return nm
}

// name returns prefix followed by the indices in decimal, joined by
// "_": name("Inspiral_", 3, 1) is "Inspiral_3_1".
func (nm *namer) name(prefix string, idx ...int) string {
	start := nm.b.Len()
	nm.b.WriteString(prefix)
	var buf [20]byte
	for k, i := range idx {
		if k > 0 {
			nm.b.WriteByte('_')
		}
		nm.b.Write(strconv.AppendInt(buf[:0], int64(i), 10))
	}
	return nm.b.String()[start:]
}

// jitter perturbs a mean multiplicatively by a uniform factor in
// [1-spread, 1+spread], making the five seeds of each (type, size)
// pair distinct instances as in the paper's methodology.
func jitter(r *rng.RNG, mean, spread float64) float64 {
	return mean * (1 + spread*(2*r.Float64()-1))
}

// weight builds a zero-sigma distribution from a runtime on the
// reference machine.
func weight(runtimeSec float64) stoch.Dist {
	return stoch.Dist{Mean: runtimeSec * refSpeed}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Verdicts of -compare, per (workload, end-to-end metric).
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the new runs of one metric with the base runs.
//
//   - unresolved: the base's own quartile spread, as a share of its
//     median, exceeds the bound, so a move of the size of the bound
//     cannot be told from noise — unless every new run reads better
//     than every base run, which is better whatever the spread;
//   - worse: the new median is worse than the base median by more than
//     the bound;
//   - better: the new median is better by more than the base's quartile
//     spread;
//   - same otherwise.
func judge(m metricSpec, base, cur []float64) string {
	sign := 1.0 // worsening is positive
	if m.Better == "higher" {
		sign = -1
	}
	mb, mc := median(base), median(cur)
	q1, q3 := quartiles(base)
	iqr := q3 - q1
	if mb == 0 {
		return verdictUnresolved
	}
	if iqr/math.Abs(mb) > m.Bound {
		if allBetter(sign, base, cur) {
			return verdictBetter
		}
		return verdictUnresolved
	}
	worsening := sign * (mc - mb)
	switch {
	case worsening > m.Bound*math.Abs(mb):
		return verdictWorse
	case -worsening > iqr && worsening != 0:
		return verdictBetter
	}
	return verdictSame
}

// allBetter reports whether every cur value is strictly better than
// every base value.
func allBetter(sign float64, base, cur []float64) bool {
	if len(base) == 0 || len(cur) == 0 {
		return false
	}
	bestBase, worstCur := sign*base[0], sign*cur[0]
	for _, v := range base {
		if sign*v < bestBase {
			bestBase = sign * v
		}
	}
	for _, v := range cur {
		if sign*v > worstCur {
			worstCur = sign * v
		}
	}
	return worstCur < bestBase
}

// runSet is every result.json under one directory.
type runSet struct {
	files []resultFile
}

func loadRunSet(dir string) (*runSet, error) {
	var set runSet
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var f resultFile
		if err := json.Unmarshal(b, &f); err != nil || len(f.Results) == 0 {
			return nil // some other JSON file, a trace for instance
		}
		set.files = append(set.files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(set.files) == 0 {
		return nil, fmt.Errorf("%s: no result.json files", dir)
	}
	return &set, nil
}

// values collects one end-to-end metric of one workload over the runs.
func (s *runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, f := range s.files {
		for _, r := range f.Results {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// failedShare is failed ÷ attempted of one workload over the runs.
func (s *runSet) failedShare(workload string) float64 {
	failed, attempted := 0, 0
	for _, f := range s.files {
		for _, r := range f.Results {
			if r.Workload == workload {
				failed += r.Failed
				attempted += r.Attempted
			}
		}
	}
	return ratio(float64(failed), float64(attempted))
}

// digests maps seed → output digest of one workload; ok is false when
// two runs of one seed disagree among themselves.
func (s *runSet) digests(workload string) (bySeed map[uint64]string, ok bool) {
	bySeed, ok = make(map[uint64]string), true
	for _, f := range s.files {
		for _, r := range f.Results {
			if r.Workload != workload {
				continue
			}
			if prev, seen := bySeed[f.Run.Seed]; seen && prev != r.Digest {
				ok = false
			}
			bySeed[f.Run.Seed] = r.Digest
		}
	}
	return bySeed, ok
}

// compareDirs prints one row per (workload, end-to-end metric) and
// returns the exit code: non-zero on a worse row, on any rise in the
// failed share, or on output digests that differ at equal seed.
func compareDirs(spec *benchSpec, baseDir, curDir string, w io.Writer) int {
	base, err := loadRunSet(baseDir)
	if err != nil {
		return fail(err)
	}
	cur, err := loadRunSet(curDir)
	if err != nil {
		return fail(err)
	}
	code := 0
	fmt.Fprintf(w, "%-13s %-16s %12s %12s %7s  %-10s %s\n", "workload", "metric", "base", "new", "new/base", "verdict", "quartiles base | new")
	for _, ws := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, c := base.values(ws.Name, m.Name), cur.values(ws.Name, m.Name)
			if len(b) == 0 || len(c) == 0 {
				fmt.Fprintf(w, "%-13s %-16s missing from one side\n", ws.Name, m.Name)
				code = 1
				continue
			}
			v := judge(m, b, c)
			if v == verdictWorse {
				code = 1
			}
			bq1, bq3 := quartiles(b)
			cq1, cq3 := quartiles(c)
			fmt.Fprintf(w, "%-13s %-16s %12.5g %12.5g %7.3f  %-10s [%.5g, %.5g] n=%d | [%.5g, %.5g] n=%d\n",
				ws.Name, m.Name, median(b), median(c), ratio(median(c), median(b)), v, bq1, bq3, len(b), cq1, cq3, len(c))
		}
		if fb, fc := base.failedShare(ws.Name), cur.failedShare(ws.Name); fc > fb {
			fmt.Fprintf(w, "%-13s failed share rose from %g to %g\n", ws.Name, fb, fc)
			code = 1
		}
		db, okb := base.digests(ws.Name)
		dc, okc := cur.digests(ws.Name)
		if !okb || !okc {
			fmt.Fprintf(w, "%-13s output_digest differs between runs of one seed on one side\n", ws.Name)
			code = 1
		}
		for seed, d := range db {
			if other, ok := dc[seed]; ok && other != d {
				fmt.Fprintf(w, "%-13s output_digest differs at seed %d\n", ws.Name, seed)
				code = 1
			}
		}
	}
	return code
}

// summarizeDir prints, as JSON, the median and quartiles of every
// end-to-end metric over a directory of runs: the form of
// baseline/seed1.json.
func summarizeDir(spec *benchSpec, dir string, w io.Writer) int {
	set, err := loadRunSet(dir)
	if err != nil {
		return fail(err)
	}
	type row struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"`
		Runs   int     `json:"runs"`
		Unit   string  `json:"unit"`
	}
	out := struct {
		Run       runInfo                   `json:"run"`
		Workloads map[string]map[string]row `json:"workloads"`
	}{Run: set.files[0].Run, Workloads: make(map[string]map[string]row)}
	out.Run.ElapsedS = 0
	for _, ws := range spec.Workloads {
		rows := make(map[string]row)
		for _, m := range spec.EndToEnd {
			vs := set.values(ws.Name, m.Name)
			q1, q3 := quartiles(vs)
			rows[m.Name] = row{Median: median(vs), Q1: q1, Q3: q3, Spread: spread(vs), Runs: len(vs), Unit: m.Unit}
		}
		out.Workloads[ws.Name] = rows
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(w, string(b))
	return 0
}

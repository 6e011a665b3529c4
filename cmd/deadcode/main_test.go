package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// fixture is a module "fix": a root package aliasing p.T, a package
// with value, pointer, unreached and generic declarations, a command,
// and the files scan must skip (tests, testdata, a nested module).
var fixture = map[string]string{
	"go.mod": "module fix\n\ngo 1.22\n",
	"fix.go": "package fix\n\nimport q \"fix/p\"\n\ntype T = q.T\n\nfunc F() {}\n\nfunc hidden() {}\n",
	"p/p.go": `package p

type T struct{}

func (T) Value()      {}
func (*T) Pointer()   {}
func (T) internal()   {}
func unused()         {}
func Generic[X any]() {}

type L[X any] struct{}

func (L[X]) Method() {}
`,
	"p/p_test.go":       "package p\n\nfunc helper() {}\n",
	"p/testdata/x.go":   "package x\n\nfunc Skipped() {}\n",
	"nested/go.mod":     "module nested\n",
	"nested/n.go":       "package n\n\nfunc Skipped() {}\n",
	"cmd/tool/main.go":  "package main\n\nfunc main() { run() }\n\nfunc run() {}\n",
	"cmd/other/main.go": "package main\n\nfunc main() { helper() }\n\nfunc helper() {}\n\nfunc run() {}\n",
}

// nm is what `go tool nm` lists for the fixture's binaries: "tool"
// calls its run, "other" its helper, and the facade program the API.
var nm = map[string]string{
	"fix/cmd/tool": `  401000 T main.main
  401020 T main.run
  401040 t runtime.asmstub
  4a0000 D fix/p.data
`,
	"fix/cmd/other": `  401000 T main.main
  401020 T main.helper
         U fix.hidden
`,
	"fix/cmd/_facade": `  401000 T main.main
  401020 T fix.F
  401040 T fix/p.T.Value
  401060 T fix/p.(*T).Pointer
  401080 T fix/p.(*T).Value
  4010a0 T fix/p.Generic[go.shape.int]
`,
}

func scanFixture(t *testing.T) *module {
	t.Helper()
	root := t.TempDir()
	for name, src := range fixture {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := scan(root, "fix")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func linkedFixture() map[string]bool {
	linked := map[string]bool{}
	for main, listing := range nm {
		readNM(listing, main, linked)
	}
	return linked
}

// TestScanSymbols: value and pointer receivers take the linker's
// forms, a command's functions are named by its import path, and
// generic declarations, tests, testdata and nested modules are left
// out.
func TestScanSymbols(t *testing.T) {
	var got []string
	for _, d := range scanFixture(t).decls {
		got = append(got, d.sym)
	}
	sort.Strings(got)
	want := []string{
		"fix.F", "fix.hidden",
		"fix/cmd/other.helper", "fix/cmd/other.main", "fix/cmd/other.run",
		"fix/cmd/tool.main", "fix/cmd/tool.run",
		"fix/p.(*T).Pointer", "fix/p.T.Value", "fix/p.T.internal", "fix/p.unused",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("declarations:\n got %q\nwant %q", got, want)
	}
}

// TestFacadeNamesTheAPI: the generated program is Go, and it refers to
// the exported function and, through the alias, to both exported
// methods, each in the form its receiver needs.
func TestFacadeNamesTheAPI(t *testing.T) {
	src := scanFixture(t).facade("fix")
	if _, err := parser.ParseFile(token.NewFileSet(), "main.go", src, 0); err != nil {
		t.Fatalf("facade program does not parse: %v\n%s", err, src)
	}
	for _, ref := range []string{"api.F", "api.T.Value", "(*api.T).Pointer"} {
		if !strings.Contains(src, "fmt.Println("+ref+")") {
			t.Errorf("facade program does not refer to %s:\n%s", ref, src)
		}
	}
	for _, ref := range []string{"hidden", "internal", "Generic"} {
		if strings.Contains(src, ref) {
			t.Errorf("facade program refers to %s:\n%s", ref, src)
		}
	}
}

// TestCheckReportsUnlinked: every declaration no binary links is
// reported at its line — other's run is not tool's run — and an
// allowlist entry with its reason silences one.
func TestCheckReportsUnlinked(t *testing.T) {
	decls, linked := scanFixture(t).decls, linkedFixture()
	want := []string{
		"fix.go:9: fix.hidden is linked by no binary",
		"cmd/other/main.go:7: fix/cmd/other.run is linked by no binary",
		"p/p.go:7: fix/p.T.internal is linked by no binary",
		"p/p.go:8: fix/p.unused is linked by no binary",
	}
	if got := check(decls, linked, nil); !reflect.DeepEqual(got, want) {
		t.Errorf("findings:\n got %q\nwant %q", got, want)
	}
	allow := map[string]string{"fix/p.unused": "oracle"}
	if got := check(decls, linked, allow); !reflect.DeepEqual(got, want[:3]) {
		t.Errorf("with fix/p.unused allowed:\n got %q", got)
	}
}

// TestStaleAllowlistFails: an entry that a binary links, or that no
// declaration has, is a finding of its own.
func TestStaleAllowlistFails(t *testing.T) {
	decls, linked := scanFixture(t).decls, linkedFixture()
	allow := map[string]string{"fix/p.T.Value": "linked now", "fix/p.gone": "deleted"}
	got := check(decls, linked, allow)
	want := []string{
		"allowlist: fix/p.T.Value is linked; remove the entry",
		"allowlist: fix/p.gone is not declared; remove the entry",
	}
	if len(got) < 2 || !reflect.DeepEqual(got[len(got)-2:], want) {
		t.Errorf("findings end with\n %q\nwant %q", got, want)
	}
}

func TestParseAllowlist(t *testing.T) {
	allow, err := parseAllowlist("# comment\n\nfix/p.unused  oracle of TestX\n")
	if err != nil || allow["fix/p.unused"] == "" || len(allow) != 1 {
		t.Errorf("parseAllowlist = %q, %v", allow, err)
	}
	for _, bad := range []string{"fix/p.unused\n", "fix/p.unused a\nfix/p.unused b\n"} {
		if _, err := parseAllowlist(bad); err == nil {
			t.Errorf("parseAllowlist(%q) accepted an entry without a reason or twice", bad)
		}
	}
	if _, err := parseAllowlist(allowlist); err != nil {
		t.Errorf("allowlist.txt: %v", err)
	}
}

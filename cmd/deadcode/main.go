// Command deadcode fails on functions of this module that no program
// links. It builds every command under cmd/, the benchmark module and
// a generated program that refers to the root package's exported
// functions and to every exported method of each type the root package
// aliases, all with inlining off, reads their symbols with `go tool nm`,
// and prints file:line for each non-test, non-generic function
// declaration that no binary links and allowlist.txt does not name. An
// allowlist entry that a binary links, or that names no declaration,
// fails too, so the list cannot grow stale.
//
//	go run ./cmd/deadcode
package main

import (
	_ "embed"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed allowlist.txt
var allowlist string

func main() {
	allow, err := parseAllowlist(allowlist)
	must(err)
	out, err := exec.Command("go", "list", "-m", "-f", "{{.Path}} {{.Dir}}").Output()
	must(err)
	mod, root, _ := strings.Cut(strings.TrimSpace(string(out)), " ")
	m, err := scan(root, mod)
	must(err)
	linked, err := link(root, mod, m)
	must(err)
	findings := check(m.decls, linked, allow)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		must(fmt.Errorf("%d finding(s)", len(findings)))
	}
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}
}

// A decl is one non-generic function or method declaration: where it
// is (file:line) and its linker symbol, pkg.F, pkg.T.m or pkg.(*T).m.
type decl struct{ pos, sym string }

// A module is what scan reads: every declaration, and the root
// package's exported aliases of qualified types (alias → package path
// and type name).
type module struct {
	decls   []decl
	aliases map[string][2]string
}

// scan reads the module mod rooted at root, outside testdata, hidden
// directories and nested modules. A package main's symbols carry its
// import path, not "main", so that one name in two commands stays two
// declarations.
func scan(root, mod string) (*module, error) {
	m := &module{aliases: map[string][2]string{}}
	return m, filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != root {
			if n := d.Name(); n == "testdata" || n[0] == '.' || n[0] == '_' {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		// Rel cannot fail on a path WalkDir found under root, nor Glob on
		// this pattern.
		rel, _ := filepath.Rel(root, dir)
		pkgPath := path.Join(mod, filepath.ToSlash(rel))
		files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
		fset := token.NewFileSet()
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			if dir == root {
				m.addAliases(f)
			}
			rel, _ := filepath.Rel(root, file)
			for _, d := range f.Decls {
				if sym := symbol(pkgPath, d); sym != "" {
					m.decls = append(m.decls, decl{fmt.Sprintf("%s:%d", filepath.ToSlash(rel), fset.Position(d.Pos()).Line), sym})
				}
			}
		}
		return nil
	})
}

// symbol returns the linker symbol of d, declared in package pkgPath,
// when d is a non-generic function or method, and "" otherwise.
func symbol(pkgPath string, d ast.Decl) string {
	fd, ok := d.(*ast.FuncDecl)
	if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" || fd.Type.TypeParams != nil {
		return ""
	}
	if fd.Recv == nil {
		return pkgPath + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	star, ptr := t.(*ast.StarExpr)
	if ptr {
		t = star.X
	}
	id, ok := t.(*ast.Ident)
	switch {
	case !ok:
		return "" // a method of a generic type
	case ptr:
		return pkgPath + ".(*" + id.Name + ")." + fd.Name.Name
	}
	return pkgPath + "." + id.Name + "." + fd.Name.Name
}

// addAliases records f's exported aliases of qualified types,
// resolving each qualifier through f's imports.
func (m *module) addAliases(f *ast.File) {
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, s := range gd.Specs {
			ts, ok := s.(*ast.TypeSpec)
			if !ok || !ts.Assign.IsValid() || !ts.Name.IsExported() {
				continue
			}
			sel, ok := ts.Type.(*ast.SelectorExpr)
			if !ok {
				continue
			}
			for _, im := range f.Imports {
				ip := strings.Trim(im.Path.Value, `"`)
				q := path.Base(ip)
				if im.Name != nil {
					q = im.Name.Name
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == q {
					m.aliases[ts.Name.Name] = [2]string{ip, sel.Sel.Name}
				}
			}
		}
	}
}

// facade is a program that refers to the root package's exported
// functions and, as method expressions, to every exported method of
// each type it aliases. It never runs; it only makes the linker keep
// what it names.
func (m *module) facade(mod string) string {
	var refs []string
	for _, d := range m.decls {
		if f, ok := strings.CutPrefix(d.sym, mod+"."); ok && token.IsExported(f) && !strings.Contains(f, ".") {
			refs = append(refs, "api."+f)
		}
		for alias, t := range m.aliases {
			if f, ok := strings.CutPrefix(d.sym, t[0]+"."+t[1]+"."); ok && token.IsExported(f) {
				refs = append(refs, "api."+alias+"."+f)
			} else if f, ok := strings.CutPrefix(d.sym, t[0]+".(*"+t[1]+")."); ok && token.IsExported(f) {
				refs = append(refs, "(*api."+alias+")."+f)
			}
		}
	}
	sort.Strings(refs)
	src := fmt.Sprintf("package main\n\nimport (\n\t\"fmt\"\n\t\"os\"\n\n\tapi %q\n)\n\nfunc main() {\n\tif len(os.Args) > 1 {\n", mod)
	for _, r := range refs {
		src += "\t\tfmt.Println(" + r + ")\n"
	}
	return src + "\t}\n}\n"
}

// link builds the commands, the benchmark module and the facade
// program into a temporary directory and returns the symbols of the
// functions they link.
func link(root, mod string, m *module) (map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "deadcode")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	// tmp holds the facade program's module and, in bin, the binaries.
	bin := filepath.Join(tmp, "bin") + string(filepath.Separator)
	gomod := fmt.Sprintf("module facade\n\ngo 1.22\n\nrequire %s v0.0.0\n\nreplace %s => %s\n", mod, mod, root)
	for name, text := range map[string]string{"go.mod": gomod, "main.go": m.facade(mod)} {
		if err := os.WriteFile(filepath.Join(tmp, name), []byte(text), 0o644); err != nil {
			return nil, err
		}
	}
	// Binaries outside cmd/ get names no package under cmd/ can have.
	for dir, args := range map[string][]string{
		root:                             {"-o", bin, "./cmd/..."},
		filepath.Join(root, "benchmark"): {"-o", bin + "_benchmark", "."},
		tmp:                              {"-o", bin + "_facade", "."},
	} {
		cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l"}, args...)...)
		// The module needs nothing from outside itself: fetch nothing.
		cmd.Dir, cmd.Env, cmd.Stderr = dir, append(os.Environ(), "GOPROXY=off", "GOWORK=off", "GOFLAGS="), os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("go build in %s: %w", dir, err)
		}
	}
	entries, err := os.ReadDir(bin)
	if err != nil {
		return nil, err
	}
	linked := map[string]bool{}
	for _, e := range entries {
		out, err := exec.Command("go", "tool", "nm", bin+e.Name()).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", e.Name(), err)
		}
		readNM(string(out), mod+"/cmd/"+strings.TrimSuffix(e.Name(), ".exe"), linked)
	}
	return linked, nil
}

// readNM adds the function symbols of a `go tool nm` listing to
// linked, naming package main's symbols by main, the import path of
// the binary's package main.
func readNM(listing, main string, linked map[string]bool) {
	for _, line := range strings.Split(listing, "\n") {
		if f := strings.Fields(line); len(f) >= 3 && f[1] == "T" {
			sym := strings.Join(f[2:], " ")
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				sym = main + "." + rest
			}
			linked[sym] = true
		}
	}
}

// parseAllowlist reads "symbol reason" lines, skipping blank lines and
// # comments. Every symbol needs one entry, with a reason.
func parseAllowlist(text string) (map[string]string, error) {
	allow := map[string]string{}
	for i, line := range strings.Split(text, "\n") {
		if line = strings.TrimSpace(line); line == "" || line[0] == '#' {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" || allow[sym] != "" {
			return nil, fmt.Errorf("allowlist line %d: %s needs one entry, with a reason", i+1, sym)
		}
		allow[sym] = reason
	}
	return allow, nil
}

// check returns a line for each declaration that is neither linked nor
// allowed, in file order, then one for each stale allowlist entry.
func check(decls []decl, linked map[string]bool, allow map[string]string) []string {
	var out, stale []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.sym] = true
		if !linked[d.sym] && allow[d.sym] == "" {
			out = append(out, d.pos+": "+d.sym+" is linked by no binary")
		}
	}
	for sym := range allow {
		if !declared[sym] {
			stale = append(stale, "allowlist: "+sym+" is not declared; remove the entry")
		} else if linked[sym] {
			stale = append(stale, "allowlist: "+sym+" is linked; remove the entry")
		}
	}
	sort.Strings(stale)
	return append(out, stale...)
}

// Command reachcheck fails when a non-test function of the root module
// is linked into none of the repository's binaries: every main package
// of the root module, and the benchmark module under bench/. Each is
// built with inlining off (-gcflags=all=-l), so a function that the
// linker keeps has a text symbol of its own; `go tool nm` lists them, and
// every non-test FuncDecl that no binary holds is reported.
//
// A second pass covers what the linker keeps regardless: the exported
// fields of the component config structs (configStructs in fields.go).
// It fails on a field that no non-test file of the root module or of
// bench/ names, other than the file that declares the struct: an
// option only tests set.
//
// allow.txt, beside this file, names what may stay unlinked or unnamed:
// a package (every function in it), one function or one config field,
// each with a reason. An entry that matches nothing is stale and fails
// the check too, so the list can only shrink.
//
// Run from the repository root:
//
//	go run ./tools/reachcheck
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const allowFile = "tools/reachcheck/allow.txt"

// fn is one non-test function declaration of the root module.
type fn struct {
	key   string // import path + "." + [receiver type + "."] + name
	pos   string // file:line
	lines int    // body lines, for the summary
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reach-check:", err)
		os.Exit(1)
	}
}

func run() error {
	module, err := goOut(".", "list", "-m")
	if err != nil {
		return err
	}
	module = strings.TrimSpace(module)
	pkgs, err := listPackages()
	if err != nil {
		return err
	}
	decls, err := parseDecls(pkgs)
	if err != nil {
		return err
	}
	linked, err := linkedSymbols(pkgs)
	if err != nil {
		return err
	}
	unnamed, err := unnamedFields(module)
	if err != nil {
		return err
	}
	allow, err := readAllow(allowFile, module)
	if err != nil {
		return err
	}

	var bad []string
	matched := map[string]bool{} // allow entries that excuse something
	total, unlinked, unlinkedLines := 0, 0, 0
	for _, d := range decls {
		total++
		if linked[d.key] {
			continue
		}
		unlinked++
		unlinkedLines += d.lines
		pkg := pkgOf(d.key)
		switch {
		case allow[pkg]:
			matched[pkg] = true
		case allow[d.key]:
			matched[d.key] = true
		default:
			bad = append(bad, fmt.Sprintf("unlinked: %s (%s)", strings.TrimPrefix(d.key, module+"/"), d.pos))
		}
	}
	for _, f := range unnamed {
		if allow[f.key] {
			matched[f.key] = true
		} else {
			bad = append(bad, fmt.Sprintf("config field named only by tests or nowhere: %s (%s)", strings.TrimPrefix(f.key, module+"/"), f.pos))
		}
	}
	for entry := range allow {
		if !matched[entry] {
			bad = append(bad, fmt.Sprintf("stale allow entry: %s (names no unlinked function or unnamed field)", strings.TrimPrefix(entry, module+"/")))
		}
	}
	sort.Strings(bad)
	fmt.Printf("reach-check: %d functions, %d unlinked (%d body lines); %d config fields unnamed; all but %d on the allow list\n",
		total, unlinked, unlinkedLines, len(unnamed), len(bad))
	for _, b := range bad {
		fmt.Println(b)
	}
	if len(bad) > 0 {
		return fmt.Errorf("%d problems: link each function into a binary, name each field outside tests, or delete it", len(bad))
	}
	return nil
}

// pkgInfo is what `go list` reports for one package of the root module.
type pkgInfo struct {
	path, name, dir string
	files           []string
}

func listPackages() ([]pkgInfo, error) {
	out, err := goOut(".", "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \",\"}}", "./...")
	if err != nil {
		return nil, err
	}
	var pkgs []pkgInfo
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 4 {
			return nil, fmt.Errorf("unexpected go list line %q", line)
		}
		p := pkgInfo{path: f[0], name: f[1], dir: f[2]}
		if f[3] != "" {
			p.files = strings.Split(f[3], ",")
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// parseDecls returns every FuncDecl in the packages' non-test files,
// except init and main, which the runtime calls, and declarations
// without a body (a //go:linkname pull of another package's function,
// or one written in assembly), which have no code of their own to link.
func parseDecls(pkgs []pkgInfo) ([]fn, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var decls []fn
	for _, p := range pkgs {
		for _, name := range p.files {
			file := filepath.Join(p.dir, name)
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Name.Name == "init" || (p.name == "main" && fd.Name.Name == "main" && fd.Recv == nil) {
					continue
				}
				key := p.path + "."
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					key += recvName(fd.Recv.List[0].Type) + "."
				}
				key += fd.Name.Name
				start := fset.Position(fd.Pos())
				end := fset.Position(fd.End())
				rel, err := filepath.Rel(root, file)
				if err != nil {
					rel = file
				}
				decls = append(decls, fn{
					key:   key,
					pos:   fmt.Sprintf("%s:%d", rel, start.Line),
					lines: end.Line - start.Line + 1,
				})
			}
		}
	}
	return decls, nil
}

// recvName is the receiver's base type name: T for T, *T, T[K] and *T[K].
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}

// linkedSymbols builds every binary and returns the normalized names of
// the root module's functions that any of them links.
func linkedSymbols(pkgs []pkgInfo) (map[string]bool, error) {
	dir, err := os.MkdirTemp("", "reachcheck")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	type binary struct{ mainPkg, out, buildDir, target string }
	var bins []binary
	for _, p := range pkgs {
		if p.name == "main" {
			bins = append(bins, binary{p.path, filepath.Join(dir, fmt.Sprint(len(bins))), ".", p.path})
		}
	}
	// The benchmark is a module of its own; its main package is not the
	// root module's, so its main.* symbols are not mapped to any package.
	bins = append(bins, binary{"", filepath.Join(dir, "bench"), "bench", "."})

	linked := map[string]bool{}
	for _, b := range bins {
		if _, err := goOut(b.buildDir, "build", "-gcflags=all=-l", "-o", b.out, b.target); err != nil {
			return nil, err
		}
		out, err := goOut(".", "tool", "nm", b.out)
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(strings.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "  <addr> <type> <name>"; the name may hold spaces (shapes of
			// struct types), so split off only the first two fields.
			f := strings.SplitN(strings.TrimLeft(sc.Text(), " "), " ", 3)
			if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			name := f[2]
			if strings.HasPrefix(name, "main.") {
				if b.mainPkg == "" {
					continue
				}
				name = b.mainPkg + strings.TrimPrefix(name, "main")
			}
			linked[normalize(name)] = true
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return linked, nil
}

// suffix matches one compiler-generated tail: closures (.func1, and .1
// for a closure nested in one), go and defer wrappers, method values
// (-fm) and range-over-func bodies.
var suffix = regexp.MustCompile(`(\.func\d+|\.gowrap\d+|\.deferwrap\d+|\.\d+|-fm|-range\d+)$`)

// normalize maps a linker symbol onto the key of the FuncDecl it came
// from: "p.(*Chan[go.shape.int]).Send.func1" becomes "p.Chan.Send" and
// "p.wrap[go.shape.string]" becomes "p.wrap".
func normalize(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := strings.NewReplacer("(*", "", ")", "").Replace(b.String())
	for {
		t := suffix.ReplaceAllString(s, "")
		if t == s {
			return s
		}
		s = t
	}
}

// pkgOf is the import path of a function key: everything before the
// first dot after the last slash.
func pkgOf(key string) string {
	slash := strings.LastIndex(key, "/")
	return key[:slash+1+strings.Index(key[slash+1:], ".")]
}

// readAllow parses the allow list: one entry per line, a package path or
// a function key relative to the module, then " — " and a reason. Blank
// lines and lines starting with # are skipped.
func readAllow(path, module string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, reason, ok := strings.Cut(line, " — ")
		if !ok || strings.TrimSpace(entry) == "" || strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: want \"<package or function> — <reason>\"", path, i+1)
		}
		allow[module+"/"+strings.TrimSpace(entry)] = true
	}
	return allow, nil
}

// goOut runs the go command in dir and returns its standard output.
func goOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out), nil
}

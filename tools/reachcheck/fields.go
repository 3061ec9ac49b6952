package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// configStruct names one component config struct whose exported fields
// the field pass covers; pkg is relative to the module path.
type configStruct struct{ pkg, name string }

var configStructs = []configStruct{
	{"internal/cluster", "Config"},
	{"internal/dfs/datanode", "Config"},
	{"internal/dfs/namenode", "Config"},
	{"internal/ignem", "SlaveConfig"},
	{"internal/scheduler", "Config"},
	{"internal/mapreduce", "Config"},
	{"internal/mapreduce", "RealConfig"},
	{"internal/experiments", "SwimConfig"},
}

// field is one exported field of a config struct.
type field struct {
	key string // import path + "." + type + "." + field
	pos string // file:line of its declaration
}

// unnamedFields type-checks every non-test file of the root module
// (examples included) and of the benchmark module, and returns the
// exported config-struct fields that no file other than the struct's
// own declaring file names, as a composite-literal key or a selector.
// A field that only tests set, or that nothing sets, is an option no
// binary can turn on.
func unnamedFields(module string) ([]field, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	var all []field
	named := map[string]bool{}
	for _, dir := range []string{".", "bench"} {
		pkgs, exports, err := listExports(dir)
		if err != nil {
			return nil, err
		}
		fset := token.NewFileSet()
		imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if f, ok := exports[path]; ok {
				return os.Open(f)
			}
			return nil, fmt.Errorf("no export data for %q", path)
		})
		for _, p := range pkgs {
			var files []*ast.File
			for _, name := range p.files {
				f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, err
				}
				files = append(files, f)
			}
			info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
			pkg, err := (&types.Config{Importer: imp}).Check(p.path, fset, files, info)
			if err != nil {
				return nil, fmt.Errorf("type-check %s: %v", p.path, err)
			}
			for _, cs := range configStructs {
				st, _ := lookupStruct(module, cs, pkg, fset)
				for i := 0; st != nil && i < st.NumFields(); i++ {
					if v := st.Field(i); v.Exported() {
						pos := fset.Position(v.Pos())
						rel, err := filepath.Rel(root, pos.Filename)
						if err != nil {
							rel = pos.Filename
						}
						all = append(all, field{key: pkg.Path() + "." + cs.name + "." + v.Name(), pos: fmt.Sprintf("%s:%d", rel, pos.Line)})
					}
				}
			}
			for id, obj := range info.Uses {
				v, ok := obj.(*types.Var)
				if !ok || !v.IsField() || v.Pkg() == nil {
					continue
				}
				for _, cs := range configStructs {
					st, file := lookupStruct(module, cs, v.Pkg(), fset)
					if st == nil || fset.Position(id.Pos()).Filename == file {
						continue
					}
					for i := 0; i < st.NumFields(); i++ {
						if st.Field(i) == v.Origin() {
							named[v.Pkg().Path()+"."+cs.name+"."+v.Name()] = true
						}
					}
				}
			}
		}
	}
	var unnamed []field
	for _, f := range all {
		if !named[f.key] {
			unnamed = append(unnamed, f)
		}
	}
	return unnamed, nil
}

// lookupStruct returns cs's struct type and the file that declares it
// when pkg is cs's package, and nil otherwise.
func lookupStruct(module string, cs configStruct, pkg *types.Package, fset *token.FileSet) (*types.Struct, string) {
	if pkg.Path() != module+"/"+cs.pkg {
		return nil, ""
	}
	obj := pkg.Scope().Lookup(cs.name)
	if obj == nil {
		return nil, ""
	}
	st, _ := obj.Type().Underlying().(*types.Struct)
	return st, fset.Position(obj.Pos()).Filename
}

// listExports lists the packages of the module in dir with their
// non-test files, and the export data of every package they depend on
// (compiling what the build cache lacks).
func listExports(dir string) ([]pkgInfo, map[string]string, error) {
	out, err := goOut(dir, "list", "-export", "-deps",
		"-f", "{{.ImportPath}}\t{{.Export}}\t{{.DepOnly}}\t{{.Dir}}\t{{join .GoFiles \",\"}}", "./...")
	if err != nil {
		return nil, nil, err
	}
	exports := map[string]string{}
	var pkgs []pkgInfo
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 5 {
			return nil, nil, fmt.Errorf("unexpected go list line %q", line)
		}
		exports[f[0]] = f[1]
		if f[2] == "true" {
			continue
		}
		p := pkgInfo{path: f[0], dir: f[3]}
		if f[4] != "" {
			p.files = strings.Split(f[4], ",")
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, exports, nil
}

package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// root is the repository root, where the BENCH_*.json records live.
const root = "../.."

// Every row of a committed BENCH_*.json record names a benchmark that a
// _test.go file of the row's package defines (a sub-benchmark row by its
// parent), so a deleted or renamed benchmark cannot leave a stale figure
// behind.
func TestBenchRowsNameDefinedBenchmarks(t *testing.T) {
	records, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		t.Fatal("no BENCH_*.json record at the repository root")
	}
	defined := definedBenchmarks(t)
	rows := 0
	for _, path := range records {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var report Report
		if err := json.Unmarshal(raw, &report); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for name, r := range report.Results {
			rows++
			fn, _, _ := strings.Cut(name, "/")
			dir := filepath.Join(root, filepath.FromSlash(r.Package))
			if !defined[dir][fn] {
				t.Errorf("%s: row %s: no _test.go file in %s defines %s", filepath.Base(path), name, r.Package, fn)
			}
		}
	}
	if rows == 0 {
		t.Fatal("the BENCH_*.json records hold no rows")
	}
}

// Each benchmark has one record: no two BENCH_*.json files hold a row for
// the same benchmark of the same package, so no two figures for it can
// disagree.
func TestBenchRowsRecordedOnce(t *testing.T) {
	records, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	recordedIn := map[string]string{}
	for _, path := range records {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var report Report
		if err := json.Unmarshal(raw, &report); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		file := filepath.Base(path)
		for name, r := range report.Results {
			key := filepath.Clean(r.Package) + " " + name
			if other, ok := recordedIn[key]; ok {
				t.Errorf("%s of %s is recorded in both %s and %s", name, r.Package, other, file)
			}
			recordedIn[key] = file
		}
	}
}

// definedBenchmarks maps each directory of the tree to the Benchmark
// functions its _test.go files declare.
func definedBenchmarks(t *testing.T) map[string]map[string]bool {
	t.Helper()
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Benchmark") {
				continue
			}
			dir := filepath.Dir(path)
			if out[dir] == nil {
				out[dir] = map[string]bool{}
			}
			out[dir][fd.Name.Name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptWithoutCaller lists the exported production declarations under
// internal/ that no binary, example or bench file names, and why each
// stays. Keys are "<dir>.<Name>" or "<dir>.<Recv>.<Name>" with dir
// relative to the module root.
var keptWithoutCaller = map[string]string{
	"internal/model.ContactProbability":             "states Eq. 3, the probability that a pair meets within the deadline",
	"internal/model.CostSingleCopy":                 "states the single-copy cost of Sec. IV-C, K+1 forwardings",
	"internal/model.PathAnonymitySingleCopy":        "states the single-copy path anonymity of Eqs. 15 and 19",
	"internal/numeric.StirlingLogFactorial":         "the paper's Stirling approximation, from which Eq. 19 is derived",
	"internal/core.Trial.Eta":                       "the paper's eta, the hop count K+1, shown in core's Example",
	"internal/node.Network.DriveTrace":              "the reference driver of the cluster differential suites",
	"internal/stats.KSSameDistribution":             "the two-sample KS test that three packages' tests share",
	"internal/groups.Directory.ProvisionHybridKeys": "public-key sealing, the stand-in for the ABE trust split; no binary provisions it yet",
}

// leanExemptMethods are method names that satisfy standard-library
// interfaces, which reach them without naming them.
var leanExemptMethods = map[string]bool{
	"String": true, "Error": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// TestProductionCodeHasAProductionCaller fails for any exported
// top-level func, method or type under internal/ whose name no non-test
// Go file in the module, its examples or the bench module uses, unless
// keptWithoutCaller names it. Production code is what a binary
// reaches; a helper only tests call belongs in a _test.go file.
func TestProductionCodeHasAProductionCaller(t *testing.T) {
	type decl struct {
		key, name string
		pos       token.Position
	}
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		scanned := strings.HasPrefix(dir, "internal/") && !strings.HasPrefix(dir, "internal/obs/promtest")
		declared := map[*ast.Ident]bool{}
		add := func(id *ast.Ident, key string) {
			declared[id] = true
			if scanned && id.IsExported() {
				decls = append(decls, decl{key: dir + "." + key, name: id.Name, pos: fset.Position(id.Pos())})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d.Name.Name)
				} else if !leanExemptMethods[d.Name.Name] {
					add(d.Name, recvName(d.Recv.List[0].Type)+"."+d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						add(ts.Name, ts.Name.Name)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declaredKeys := map[string]bool{}
	var orphans []string
	for _, d := range decls {
		declaredKeys[d.key] = true
		_, kept := keptWithoutCaller[d.key]
		switch {
		case !used[d.name] && !kept:
			orphans = append(orphans, d.pos.String()+": "+d.key)
		case used[d.name] && kept:
			t.Errorf("keptWithoutCaller[%q] is stale: production code now uses %s", d.key, d.name)
		}
	}
	for key := range keptWithoutCaller {
		if !declaredKeys[key] {
			t.Errorf("keptWithoutCaller[%q] is stale: no such declaration", key)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s has no production caller; delete it, move it into a _test.go file, or list it in keptWithoutCaller", o)
	}
	if len(orphans) > 0 {
		t.Logf("%d exported declarations without a production caller", len(orphans))
	}
}

// recvName returns the base type name of a method receiver.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

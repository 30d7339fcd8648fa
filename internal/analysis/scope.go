package analysis

import (
	"go/types"
	"path/filepath"
	"strings"
)

// scope is where a table-driven rule applies, as a list of patterns:
// an import path ("repro/internal/graph") names that package, "p/..."
// names p and every package below it, and "p/file.go" names one file
// of p.
type scope []string

// has reports whether the file filename of package pkgPath is in s;
// an import path is matched with no filename.
func (s scope) has(pkgPath, filename string) bool {
	file := pkgPath + "/" + filepath.Base(filename)
	for _, pat := range s {
		if tree, ok := strings.CutSuffix(pat, "/..."); ok {
			if pkgPath == tree || strings.HasPrefix(pkgPath, tree+"/") {
				return true
			}
		} else if pat == pkgPath || pat == file {
			return true
		}
	}
	return false
}

// funcName is how the rule tables name a function or method:
// types.Func.FullName of its generic origin ("context.TODO",
// "(*repro/internal/graph.Graph).AddEdge").
func funcName(obj types.Object) (string, bool) {
	fn, ok := obj.(*types.Func)
	if !ok {
		return "", false
	}
	return fn.Origin().FullName(), true
}

// qualifiedName renders a table name with package names in place of
// import paths ("(*graph.Graph).AddEdge") for diagnostics.
func qualifiedName(fullName string) string {
	slash := strings.LastIndex(fullName, "/")
	if slash < 0 {
		return fullName
	}
	start := strings.LastIndexAny(fullName[:slash], "(*") + 1
	return fullName[:start] + fullName[slash+1:]
}

// typeName renders t with package names in place of import paths.
func typeName(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

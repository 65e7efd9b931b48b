package analysis

import (
	"go/types"
	"runtime"
	"sort"
	"testing"
)

// hotStructs names the per-event and per-transaction records the
// simulator allocates (or pools) on its hottest paths. Each must pack
// with no interior padding: its laid-out size has to equal the best
// achievable by reordering its fields. A field added in the wrong spot
// grows every queued event/transaction and fails this test.
var hotStructs = map[string][]string{
	"./internal/sim":       {"event"},
	"./internal/dramcache": {"txn"},
	"./internal/backing":   {"mmReq"},
	"./internal/mem":       {"Request"},
}

func TestHotStructsPacked(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks four packages; skipped in -short runs")
	}
	patterns := make([]string, 0, len(hotStructs))
	for p := range hotStructs {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	pkgs, err := Load("../..", patterns...)
	if err != nil {
		t.Fatal(err)
	}
	byBase := make(map[string]*Package)
	for _, p := range pkgs {
		byBase[PathBase(p.ImportPath)] = p
	}
	sizes := types.SizesFor("gc", runtime.GOARCH)
	if sizes == nil {
		t.Fatalf("no gc sizes for GOARCH %s", runtime.GOARCH)
	}
	for _, pat := range patterns {
		pkg := byBase[PathBase(pat)]
		if pkg == nil {
			t.Fatalf("%s: package not loaded", pat)
		}
		for _, name := range hotStructs[pat] {
			obj := pkg.Types.Scope().Lookup(name)
			if obj == nil {
				t.Errorf("%s: struct %s not found (renamed? update hotStructs)", pat, name)
				continue
			}
			st, ok := obj.Type().Underlying().(*types.Struct)
			if !ok {
				t.Errorf("%s.%s: not a struct", pat, name)
				continue
			}
			actual := sizes.Sizeof(obj.Type())
			best := packedSize(st, sizes)
			if actual != best {
				t.Errorf("%s.%s is %d bytes laid out but packs to %d: reorder its fields (wide fields first, flag bytes last)",
					pat, name, actual, best)
			}
		}
	}
}

// packedSize computes the struct size achievable by sorting fields by
// decreasing alignment, which eliminates all interior padding.
func packedSize(st *types.Struct, sizes types.Sizes) int64 {
	fields := make([]types.Type, st.NumFields())
	for i := range fields {
		fields[i] = st.Field(i).Type()
	}
	sort.SliceStable(fields, func(i, j int) bool {
		return sizes.Alignof(fields[i]) > sizes.Alignof(fields[j])
	})
	var off, maxAlign int64 = 0, 1
	for _, ft := range fields {
		a := sizes.Alignof(ft)
		if a > maxAlign {
			maxAlign = a
		}
		if r := off % a; r != 0 {
			off += a - r
		}
		off += sizes.Sizeof(ft)
	}
	if r := off % maxAlign; r != 0 {
		off += maxAlign - r
	}
	return off
}

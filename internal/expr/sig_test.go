package expr

import (
	"slices"
	"testing"

	"hawq/internal/types"
)

// TestExactSigsAgreeWithSearch: the index of exact signatures answers
// every list of up to three argument kinds as the search over the whole
// table does — the same signature, result kind and argument kinds.
func TestExactSigsAgreeWithSearch(t *testing.T) {
	kinds := []types.Kind{types.KindNull, types.KindBool, types.KindInt32, types.KindInt64, types.KindFloat64,
		types.KindDecimal, types.KindString, types.KindDate, types.KindBytes, kindDays, kindDays + 1}
	var names []string
	for key := range exactSigs {
		if !slices.Contains(names, key.name) {
			names = append(names, key.name)
		}
	}
	if len(names) < 10 {
		t.Fatalf("only %d names indexed: %v", len(names), names)
	}
	index := exactSigs
	defer func() { exactSigs = index }()
	var lists [][]types.Kind
	for _, a := range kinds {
		lists = append(lists, []types.Kind{a})
		for _, b := range kinds {
			lists = append(lists, []types.Kind{a, b})
			for _, c := range kinds[:4] {
				lists = append(lists, []types.Kind{a, b, c})
			}
		}
	}
	for _, name := range names {
		for _, ks := range lists {
			args := make([]Expr, len(ks))
			for i, k := range ks {
				args[i] = &ColRef{Idx: i, K: k}
			}
			fastWant, slowWant := make([]types.Kind, len(ks)), make([]types.Kind, len(ks))
			exactSigs = index
			fs, fo, ferr := match(name, args, ks, false, fastWant)
			exactSigs = nil
			ss, so, serr := match(name, args, ks, false, slowWant)
			if (ferr == nil) != (serr == nil) || fo != so || fs.lower != ss.lower || !slices.Equal(fs.args, ss.args) || ferr == nil && !slices.Equal(fastWant, slowWant) {
				t.Errorf("%s%v: indexed %v %v %v %v, searched %v %v %v %v", name, ks, fs, fo, fastWant, ferr, ss, so, slowWant, serr)
			}
		}
	}
}

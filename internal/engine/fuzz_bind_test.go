package engine

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hawq/internal/types"
)

// The vocabulary FuzzBindExecute swaps within: a token of one class is
// replaced by another of its class. Tokens are a statement's
// space-separated words, so seeds space every token, parentheses too.
var fuzzSwaps = [][]string{
	{"id", "owner", "balance", "opened", "score", "n"},
	{"fz", "fzc"},
	{"upper", "lower", "length", "trim", "abs", "round", "coalesce", "substring", "sum", "avg", "min", "max", "count"},
	{"+", "-", "*", "/", "%", "||", "=", "<>", "<", ">=", "AND", "OR"},
	{"5", "2.5", "'a'", "'2014-01-02'", "NULL", "true", "1e0", "0"},
}

// fuzzMutate applies up to four swaps to sql, two bytes of swaps each:
// which token, and which word of its class replaces it.
func fuzzMutate(sql string, swaps uint64) []string {
	toks := strings.Fields(sql)
	for k := 0; k < 4 && len(toks) > 0; k, swaps = k+1, swaps>>16 {
		at, pick := int(swaps&0xff)%len(toks), int(swaps>>8&0xff)
		for _, class := range fuzzSwaps {
			if slices.Contains(class, toks[at]) || isFuzzLiteral(toks[at]) && class[0] == "5" {
				toks[at] = class[pick%len(class)]
				break
			}
		}
	}
	return toks
}

func isFuzzLiteral(tok string) bool {
	return tok != "" && (tok[0] >= '0' && tok[0] <= '9' || tok[0] == '\'' || tok == "NULL" || tok == "true" || tok == "false")
}

// fuzzParams is toks with each string literal not spelled as a DATE or
// an INTERVAL made a placeholder, one per distinct literal, and the
// literals' values (a doubled quote is one) as the client's arguments.
func fuzzParams(toks []string) (string, []types.Datum) {
	out, args := slices.Clone(toks), []types.Datum(nil)
	var seen []string
	for i, tok := range out {
		if len(tok) >= 2 && tok[0] == '\'' && tok[len(tok)-1] == '\'' && (i == 0 || out[i-1] != "DATE" && out[i-1] != "INTERVAL") {
			n := slices.Index(seen, tok)
			if n < 0 {
				seen, n = append(seen, tok), len(seen)
				args = append(args, types.NewString(strings.ReplaceAll(tok[1:len(tok)-1], "''", "'")))
			}
			out[i] = fmt.Sprintf("$%d", n+1)
		}
	}
	return strings.Join(out, " "), args
}

// fuzzOutcome runs one form of a statement: its sorted rows, or its
// error. An error a QE raised, and a cell not of its column's kind, are
// findings.
func fuzzOutcome(t *testing.T, sql string, res *Result, err error) ([]string, error) {
	t.Helper()
	if err != nil {
		if strings.Contains(err.Error(), "segment ") {
			t.Fatalf("%s: a QE raised %v; the QD must refuse it", sql, err)
		}
		return nil, err
	}
	var rows []string
	for _, r := range res.Rows {
		for c, d := range r {
			k := res.Schema.Columns[c].Kind
			if !d.IsNull() && d.K != k && !(isInt(d.K) && isInt(k)) {
				t.Fatalf("%s: column %d is %s and holds %s %s", sql, c, k, d.K, d)
			}
		}
		rows = append(rows, r.String())
	}
	slices.Sort(rows)
	return rows, nil
}

func isInt(k types.Kind) bool { return k == types.KindInt32 || k == types.KindInt64 }

// FuzzBindExecute mutates statements over a small schema — a column, a
// table, a function, an operator or a literal swapped for another of
// its class — and runs each as text and as a prepared statement whose
// string literals are placeholders. Every statement must be refused on
// the QD or run; when both forms run they answer alike, each cell of its
// column's kind. A panic (a QE's ends the process) or an error a QE
// raised is a finding. The seeds are testdata/fuzz/FuzzBindExecute; run
// more with go test -fuzz FuzzBindExecute ./internal/engine.
func FuzzBindExecute(f *testing.F) {
	e := newTestEngine(f, 2)
	s := e.NewSession()
	for _, with := range []string{"fz", "fzc"} {
		storage := map[string]string{"fz": "appendonly=true", "fzc": "appendonly=true, orientation=column"}[with]
		mustExec(f, s, fmt.Sprintf("CREATE TABLE %s (id INT8, owner TEXT, balance DECIMAL(12,2), opened DATE, score DOUBLE, n INT4) WITH (%s) DISTRIBUTED BY (id)", with, storage))
		mustExec(f, s, "INSERT INTO "+with+" VALUES (1, 'a', 1.50, DATE '2014-01-02', 0.5, 7), (2, 'b', NULL, DATE '2014-03-31', -1.5, NULL), "+
			"(3, NULL, 20.25, NULL, NULL, 3), (4, '2014-01-02', 0.00, DATE '2013-12-31', 2.0, -4)")
	}
	f.Fuzz(func(t *testing.T, sql string, swaps uint64) {
		toks := fuzzMutate(sql, swaps)
		text := strings.Join(toks, " ")
		res, err := s.Query(text)
		want, werr := fuzzOutcome(t, text, res, err)
		withParams, args := fuzzParams(toks)
		if len(args) == 0 {
			return
		}
		if err := s.Prepare("fz", withParams); err != nil {
			return
		}
		defer func() {
			if err := s.Deallocate("fz"); err != nil {
				t.Error(err)
			}
		}()
		res, err = s.ExecutePrepared("fz", args...)
		got, gerr := fuzzOutcome(t, withParams, res, err)
		if werr == nil && gerr == nil && !slices.Equal(want, got) {
			t.Fatalf("%s answers %v; %s with %v answers %v", text, want, withParams, args, got)
		}
	})
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hawq/internal/types"
)

// fingerprint reduces a result set to a short digest that ignores row
// order and compares floats at about 1e-6 relative: rows are rendered
// column by column (floats to six significant digits), sorted, and
// hashed. Two engines loaded from the same generator must produce the
// same digest for the same query whatever their segment count, storage
// format or plan shape.
func fingerprint(rows []types.Row) string {
	lines := make([]string, len(rows))
	var b strings.Builder
	for i, row := range rows {
		b.Reset()
		for _, d := range row {
			b.WriteString(renderDatum(d))
			b.WriteByte('|')
		}
		lines[i] = b.String()
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%d:%s", len(rows), hex.EncodeToString(h.Sum(nil)[:8]))
}

// renderDatum renders one value for the fingerprint. Decimals are
// normalised so 5.50 and 5.5 agree; floats keep six significant digits.
func renderDatum(d types.Datum) string {
	switch d.K {
	case types.KindFloat64:
		return strconv.FormatFloat(d.F, 'e', 5, 64)
	case types.KindDecimal:
		s := d.DecimalString()
		if strings.Contains(s, ".") {
			s = strings.TrimRight(strings.TrimRight(s, "0"), ".")
		}
		return s
	default:
		return d.String()
	}
}

// errWrongAnswer builds the error a mismatching result is recorded with.
func errWrongAnswer(what, got, want string) error {
	return fmt.Errorf("wrong answer for %s: got %s, want %s", what, got, want)
}

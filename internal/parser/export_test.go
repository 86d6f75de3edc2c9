package parser

import "sort"

// RowSources is every input of this package's table tests, sorted, for the
// external test package's differential test.
func RowSources() []string {
	var out []string
	for _, rows := range []map[string]string{atomRows, operatorRows, bracketRows, programRows, conditionRows} {
		for src := range rows {
			out = append(out, src)
		}
	}
	sort.Strings(out)
	return append(out, soupRows...)
}

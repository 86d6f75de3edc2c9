package main

import (
	"fmt"
	"strings"
)

// expected/programs.txt and expected/queries.txt hold one "key<TAB>value"
// line per program variant and per query. They were written once by
// -regen-expected from the plain interpreter (kernel.Run, never the
// compiler under test) after cross-checking against the Go references.

func readExpected(file string) (map[string]string, error) {
	b, err := files.ReadFile("expected/" + file)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for n, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("expected/%s:%d: no tab", file, n+1)
		}
		out[key] = val
	}
	return out, nil
}

func expectedPrograms() (map[string]string, error) { return readExpected("programs.txt") }
func expectedQueries() (map[string]string, error)  { return readExpected("queries.txt") }

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"wolfc/internal/core"
)

// regenExpected rewrites expected/*.txt under dir (the benchmark's source
// directory); the compiler under test contributes nothing to them.
//
// The interpreter re-evaluates a list every time a variable holding it is
// read, so a loop over an n-element list costs n^2 and the full-size
// programs would take hours. Each program is therefore interpreted at its
// small size, the Go reference must reduce to the same checksum there or
// nothing is written, and the full-size line is the output of that same,
// now cross-checked, reference. Queries are small and come straight from
// the interpreter.
func regenExpected(dir string) error {
	var lines []string
	c := core.NewCompiler(newKernel())
	for _, p := range programs() {
		ccf, err := compileProgram(c, p)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		for v := 0; v < p.variants; v++ {
			small, err := p.bind(c, ccf, v, p.small)
			if err != nil {
				return fmt.Errorf("%s/%d: %w", p.name, v, err)
			}
			out, err := small.interp(newKernel())
			if err != nil {
				return fmt.Errorf("%s/%d: interpreter: %w", p.name, v, err)
			}
			got := checksum(out)
			if ref := refChecksum(small); ref != got {
				return fmt.Errorf("%s/%d: interpreter says %q, Go reference says %q; nothing written", p.name, v, got, ref)
			}
			full, err := p.bind(c, ccf, v, p.size)
			if err != nil {
				return fmt.Errorf("%s/%d: %w", p.name, v, err)
			}
			for key, val := range map[string]string{
				expectedKey(p, v, true):  got,
				expectedKey(p, v, false): refChecksum(full),
			} {
				fmt.Fprintf(os.Stderr, "%s\t%s\n", key, val)
				lines = append(lines, key+"\t"+val)
			}
		}
	}
	if err := writeLines(filepath.Join(dir, "expected", "programs.txt"), lines); err != nil {
		return err
	}
	queries, err := regenQueries()
	if err != nil {
		return err
	}
	return writeLines(filepath.Join(dir, "expected", "queries.txt"), queries)
}

func expectedKey(p *program, v int, small bool) string {
	if small {
		return fmt.Sprintf("%s/small/%d", p.name, v)
	}
	return fmt.Sprintf("%s/%d", p.name, v)
}

func refChecksum(b bound) string {
	if b.before != nil {
		b.before()
	}
	return checksum(b.ref())
}

func writeLines(path string, lines []string) error {
	sort.Strings(lines)
	return os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
}

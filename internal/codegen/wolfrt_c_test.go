package codegen

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Unit tests for the C runtime header itself, independent of the emitter:
// a C driver asserts the runtime's semantics (floored division, half-even
// rounding, UTF-8 string handling, tensor protocol, reference counting) and
// must print ALL-OK.

const wolfrtDriver = `
#include <stdio.h>
#include "wolfrt.h"

static int failures = 0;
#define CHECK(cond) do { \
	if (!(cond)) { failures++; fprintf(stderr, "FAIL line %d: %s\n", __LINE__, #cond); } \
} while (0)

int main(void) {
	/* floored Mod/Quotient on all sign combinations (language semantics) */
	CHECK(wolfrt_mod_int(7, 3) == 1 && wolfrt_quotient_int(7, 3) == 2);
	CHECK(wolfrt_mod_int(-7, 3) == 2 && wolfrt_quotient_int(-7, 3) == -3);
	CHECK(wolfrt_mod_int(7, -3) == -2 && wolfrt_quotient_int(7, -3) == -3);
	CHECK(wolfrt_mod_int(-7, -3) == -1 && wolfrt_quotient_int(-7, -3) == 2);
	CHECK(wolfrt_mod_real(-7.5, 3.0) == 1.5);

	/* checked arithmetic happy paths */
	CHECK(wolfrt_add_i64(1, 2) == 3 && wolfrt_mul_i64(-4, 5) == -20);
	CHECK(wolfrt_power_int(3, 7) == 2187 && wolfrt_power_int(5, 0) == 1);
	CHECK(wolfrt_abs_int(-9) == 9 && wolfrt_neg_i64(8) == -8);
	CHECK(wolfrt_sign_int(-3) == -1 && wolfrt_sign_real(0.0) == 0);
	CHECK(wolfrt_evenq(-4) && wolfrt_oddq(-3) && !wolfrt_oddq(0));
	CHECK(wolfrt_min_i64(2, -5) == -5 && wolfrt_max_r64(1.5, -2.0) == 1.5);

	/* strings: byte vs rune counts, UTF-8 take from both ends */
	wolfrt_string *s = wolfrt_string_literal("a\xC3\xA9z"); /* "aéz" */
	CHECK(wolfrt_string_byte_length(s) == 4);
	CHECK(wolfrt_string_length(s) == 3);
	CHECK(wolfrt_string_byte(s, 1) == 'a' && wolfrt_string_byte(s, 4) == 'z');
	wolfrt_string *first2 = wolfrt_string_take(s, 2);
	CHECK(wolfrt_string_length(first2) == 2 && first2->bytes[0] == 'a');
	wolfrt_string *last2 = wolfrt_string_take(s, -2);
	CHECK(wolfrt_string_length(last2) == 2 && last2->bytes[last2->len-1] == 'z');
	CHECK(wolfrt_string_take(s, 0)->len == 0 && wolfrt_string_take(s, 3)->len == 4);
	CHECK(wolfrt_string_take(s, -3)->len == 4 && wolfrt_string_take(s, -1)->bytes[0] == 'z');
	wolfrt_string *j = wolfrt_string_join(first2, last2);
	CHECK(wolfrt_string_length(j) == 4);
	CHECK(wolfrt_string_equal(wolfrt_string_literal("ab"), wolfrt_string_literal("ab")));
	CHECK(!wolfrt_string_equal(wolfrt_string_literal("ab"), wolfrt_string_literal("ac")));
	CHECK(wolfrt_string_equal(wolfrt_int_to_string(-42), wolfrt_string_literal("-42")));

	/* char-code round trip */
	wolfrt_tensor *codes = wolfrt_to_char_code(s);
	CHECK(codes->dims[0] == 3);
	CHECK(wolfrt_part_1_i64(codes, 2) == 233); /* é */
	wolfrt_string *back = wolfrt_from_char_code(codes);
	CHECK(wolfrt_string_equal(back, s));

	/* tensors: rank 1 and 2, copies are deep, setpart returns the tensor */
	wolfrt_tensor *v = wolfrt_list_new_i64(4);
	CHECK(wolfrt_tensor_length(v) == 4 && wolfrt_part_1_i64(v, 4) == 0);
	wolfrt_setpart_1_i64(v, 2, 55);
	wolfrt_tensor *w = wolfrt_copy_tensor(v);
	wolfrt_setpart_1_i64(w, 2, 99);
	CHECK(wolfrt_part_1_i64(v, 2) == 55 && wolfrt_part_1_i64(w, 2) == 99);

	wolfrt_tensor *m = wolfrt_matrix_new_r64(2, 3);
	wolfrt_setpart_2_r64(m, 2, 3, 6.5);
	CHECK(wolfrt_part_2_r64(m, 2, 3) == 6.5 && wolfrt_part_2_r64(m, 1, 1) == 0.0);
	wolfrt_tensor *row = wolfrt_part_row(m, 2);
	CHECK(row->rank == 1 && row->dims[0] == 3 && wolfrt_part_1_r64(row, 3) == 6.5);

	/* negative indices resolve from the end, as in the engine */
	CHECK(wolfrt_part_1_i64(v, -3) == 55);
	CHECK(wolfrt_part_2_r64(m, -1, -1) == 6.5);
	wolfrt_setpart_1_i64(v, -1, 77);
	CHECK(wolfrt_part_1_i64(v, 4) == 77);
	wolfrt_tensor *lastrow = wolfrt_part_row(m, -1);
	CHECK(wolfrt_part_1_r64(lastrow, 3) == 6.5);

	wolfrt_tensor *taken = wolfrt_list_take(v, 2);
	CHECK(taken->dims[0] == 2 && wolfrt_part_1_i64(taken, 2) == 55);

	/* elementwise arithmetic with checked integer ops */
	wolfrt_tensor *sum = wolfrt_tensor_plus(v, w, NULL);
	CHECK(wolfrt_part_1_i64(sum, 2) == 154);
	wolfrt_tensor *neg = wolfrt_tensor_minus(sum, NULL);
	CHECK(wolfrt_part_1_i64(neg, 2) == -154);
	wolfrt_tensor *scaled = wolfrt_tensor_scalar_times_i64(v, 3, NULL);
	CHECK(wolfrt_part_1_i64(scaled, 2) == 165 && wolfrt_part_1_i64(v, 2) == 55);
	wolfrt_tensor *flipped = wolfrt_scalar_tensor_subtract_i64(100, v, NULL);
	CHECK(wolfrt_part_1_i64(flipped, 2) == 45);

	/* an operation that consumes an operand (native_intoK) writes over it
	 * when it holds the only reference, and moves the reference otherwise */
	wolfrt_memory_acquire(sum);
	wolfrt_tensor *over = wolfrt_tensor_plus(sum, w, sum);
	CHECK(over == sum && over->h.refs == 1 && wolfrt_part_1_i64(over, 2) == 253);
	wolfrt_memory_acquire(over);
	wolfrt_tensor *moved = wolfrt_tensor_subtract(w, over, over);
	CHECK(moved != over && moved->h.refs == 1 && over->h.refs == 1);
	CHECK(wolfrt_part_1_i64(moved, 2) == 99 - 253 && wolfrt_part_1_i64(over, 2) == 253);

	/* tensor math and dot */
	wolfrt_tensor *rv = wolfrt_list_new_r64(3);
	wolfrt_setpart_1_r64(rv, 1, 4.0);
	wolfrt_setpart_1_r64(rv, 2, 9.0);
	wolfrt_setpart_1_r64(rv, 3, 16.0);
	wolfrt_tensor *roots = wolfrt_tensor_math_sqrt(rv, NULL);
	CHECK(wolfrt_part_1_r64(roots, 2) == 3.0);
	CHECK(wolfrt_dot_vv(roots, roots) == 4.0 + 9.0 + 16.0);
	wolfrt_tensor *mv = wolfrt_dot_mv(m, roots);
	CHECK(mv->dims[0] == 2 && wolfrt_part_1_r64(mv, 2) == 6.5 * 4.0);

	/* reference counting: one acquire per live value, release frees once */
	wolfrt_tensor *rc = wolfrt_list_new_i64(2);
	wolfrt_memory_acquire(rc);
	wolfrt_memory_acquire(rc);
	wolfrt_memory_release(rc);
	CHECK(wolfrt_part_1_i64(rc, 1) == 0); /* still alive after one release */
	wolfrt_memory_release(rc);            /* refcount hits zero, freed */

	/* deterministic RNG stays in range */
	wolfrt_seed(42);
	for (int i = 0; i < 1000; i++) {
		double r = wolfrt_random_real01();
		CHECK(r >= 0.0 && r < 1.0);
		int64_t k = wolfrt_random_int_range(-3, 3);
		CHECK(k >= -3 && k <= 3);
	}

	if (failures == 0)
		printf("ALL-OK\n");
	return failures == 0 ? 0 : 1;
}
`

func TestWolfRTHeaderSemantics(t *testing.T) {
	cc := ccPath(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wolfrt.h"), []byte(WolfRTHeader), 0o644); err != nil {
		t.Fatal(err)
	}
	cpath := filepath.Join(dir, "driver.c")
	if err := os.WriteFile(cpath, []byte(wolfrtDriver), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "driver")
	out, err := exec.Command(cc, "-std=c11", "-O1", "-I", dir,
		"-Werror=implicit-function-declaration", "-o", bin, cpath, "-lm").CombinedOutput()
	if err != nil {
		t.Fatalf("cc: %v\n%s", err, out)
	}
	got, err := exec.Command(bin).CombinedOutput()
	if err != nil || !strings.Contains(string(got), "ALL-OK") {
		t.Fatalf("runtime driver failed: %v\n%s", err, got)
	}
}

// The fatal paths must exit non-zero with a diagnostic, one child process
// per condition.
func TestWolfRTFatalPaths(t *testing.T) {
	cc := ccPath(t)
	cases := []struct{ name, stmt, want string }{
		{"add-overflow", "wolfrt_add_i64(INT64_MAX, 1);", "overflow"},
		{"mul-overflow", "wolfrt_mul_i64(INT64_MAX/2, 3);", "overflow"},
		{"neg-min", "wolfrt_neg_i64(INT64_MIN);", "overflow"},
		{"negative-power", "wolfrt_power_int(2, -1);", "exponent"},
		{"mod-zero", "wolfrt_mod_int(5, 0);", "zero"},
		{"part-bounds", "wolfrt_part_1_i64(wolfrt_list_new_i64(3), 4);", "Part"},
		{"setpart-bounds", "wolfrt_setpart_2_i64(wolfrt_matrix_new_i64(2, 2), 3, 1, 0);", "Part"},
		{"string-bounds", "wolfrt_string_byte(wolfrt_string_literal(\"ab\"), 3);", "range"},
		{"take-too-many", "wolfrt_string_take(wolfrt_string_literal(\"ab\"), 5);", "length"},
		{"expr-constant", "wolfrt_constant(\"Sin[x]\");", "engine"},
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wolfrt.h"), []byte(WolfRTHeader), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			src := "#include \"wolfrt.h\"\nint main(void) { " + cse.stmt + " return 0; }\n"
			cpath := filepath.Join(dir, cse.name+".c")
			if err := os.WriteFile(cpath, []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			bin := filepath.Join(dir, cse.name)
			out, err := exec.Command(cc, "-std=c11", "-I", dir, "-o", bin, cpath, "-lm").CombinedOutput()
			if err != nil {
				t.Fatalf("cc: %v\n%s", err, out)
			}
			got, err := exec.Command(bin).CombinedOutput()
			if err == nil {
				t.Fatalf("%s should die fatally, got %q", cse.stmt, got)
			}
			if !strings.Contains(string(got), cse.want) {
				t.Fatalf("diagnostic %q missing %q", got, cse.want)
			}
		})
	}
}

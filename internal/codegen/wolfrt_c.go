package codegen

import "strings"

// cRuntimeInclude is the include line EmitC writes; InlineCRuntime replaces
// it with the header body to form a self-contained translation unit.
const cRuntimeInclude = `#include "wolfrt.h" /* tensors, strings, expressions, checked arithmetic */`

// InlineCRuntime splices the wolfrt runtime into C source produced by EmitC,
// yielding a single self-contained file that a C compiler can build directly
// (link with -lm). Source without the include line is returned unchanged.
func InlineCRuntime(src string) string {
	return strings.Replace(src, cRuntimeInclude, WolfRTHeader, 1)
}

// WolfRTHeader is the standalone C runtime ("wolfrt.h") that the C backend's
// emitted translation units compile against. It implements the runtime
// surface of §4.6's standalone mode: checked machine arithmetic, tensors
// with F7 reference-counted memory management, byte strings, and the BLAS
// stand-in for Dot. Engine-dependent features are compiled out exactly as
// the paper describes for standalone export — abort polling becomes a no-op,
// and soft numeric failure (F2), expressions (F8), kernel escapes (F9), and
// function values degrade to fatal errors, because there is no interpreter
// to fall back to.
//
// Element-polymorphic entry points are monomorphised by the emitter
// (wolfrt_part_1_i64, ...), so the header stamps one definition per element
// type with a preprocessor macro. Everything is static inline so the header
// can be included by any number of translation units.
const WolfRTHeader = `/* wolfrt.h — standalone C runtime for the Wolfram compiler's C backend.
 *
 * Standalone mode (paper §4.6): no interpreter is linked in, so conditions
 * the engine would recover from (integer overflow, Part out of range) are
 * fatal, and engine-only features (expressions, kernel calls, function
 * values) abort with a diagnostic if reached.
 */
#ifndef WOLFRT_H
#define WOLFRT_H

#include <stdint.h>
#include <stdbool.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <math.h>
#include <complex.h>
#include <inttypes.h>

static inline void wolfrt_panic(const char *msg) {
	fprintf(stderr, "wolfrt: fatal: %s\n", msg);
	exit(1);
}

/* F3 abort polling: compiled out in standalone mode. */
static inline void wolfrt_abort_check(void) {}

/* ---- checked machine arithmetic (F2 degrades to a fatal error) ---- */

static inline int64_t wolfrt_add_i64(int64_t a, int64_t b) {
#if defined(__GNUC__) || defined(__clang__)
	int64_t r;
	if (__builtin_add_overflow(a, b, &r))
		wolfrt_panic("integer overflow in Plus (no interpreter fallback in standalone mode)");
	return r;
#else
	if ((b > 0 && a > INT64_MAX - b) || (b < 0 && a < INT64_MIN - b))
		wolfrt_panic("integer overflow in Plus (no interpreter fallback in standalone mode)");
	return a + b;
#endif
}

static inline int64_t wolfrt_sub_i64(int64_t a, int64_t b) {
#if defined(__GNUC__) || defined(__clang__)
	int64_t r;
	if (__builtin_sub_overflow(a, b, &r))
		wolfrt_panic("integer overflow in Subtract");
	return r;
#else
	if ((b < 0 && a > INT64_MAX + b) || (b > 0 && a < INT64_MIN + b))
		wolfrt_panic("integer overflow in Subtract");
	return a - b;
#endif
}

static inline int64_t wolfrt_mul_i64(int64_t a, int64_t b) {
#if defined(__GNUC__) || defined(__clang__)
	int64_t r;
	if (__builtin_mul_overflow(a, b, &r))
		wolfrt_panic("integer overflow in Times");
	return r;
#else
	if (a == 0 || b == 0)
		return 0;
	int64_t r = (int64_t)((uint64_t)a * (uint64_t)b);
	if ((a == -1 && b == INT64_MIN) || (b == -1 && a == INT64_MIN) || r / a != b)
		wolfrt_panic("integer overflow in Times");
	return r;
#endif
}

static inline int64_t wolfrt_neg_i64(int64_t a) {
	if (a == INT64_MIN)
		wolfrt_panic("integer overflow in Minus");
	return -a;
}

static inline int64_t wolfrt_abs_int(int64_t a) {
	return a < 0 ? wolfrt_neg_i64(a) : a;
}

static inline int64_t wolfrt_power_int(int64_t base, int64_t exp) {
	if (exp < 0)
		wolfrt_panic("Power: negative machine-integer exponent");
	/* Repeated squaring, as runtime.PowI64: the base is squared only while
	 * exponent bits remain, so a checked multiply overflows exactly when the
	 * power does not fit. */
	int64_t r = 1;
	for (;;) {
		if (exp & 1)
			r = wolfrt_mul_i64(r, base);
		if ((exp >>= 1) == 0)
			return r;
		base = wolfrt_mul_i64(base, base);
	}
}

/* Mod follows the sign of the modulus; Quotient is floor division. The
 * hardware divide traps on INT64_MIN / -1 (and on the % of the same pair),
 * so both are answered before it runs. */
static inline int64_t wolfrt_mod_int(int64_t a, int64_t m) {
	if (m == 0)
		wolfrt_panic("Mod by zero");
	if (m == -1)
		return 0;
	int64_t r = a % m;
	if (r != 0 && ((r < 0) != (m < 0)))
		r += m;
	return r;
}

static inline int64_t wolfrt_quotient_int(int64_t a, int64_t m) {
	if (m == 0)
		wolfrt_panic("Quotient by zero");
	if (m == -1) {
		if (a == INT64_MIN)
			wolfrt_panic("integer overflow in Quotient");
		return -a;
	}
	int64_t q = a / m;
	if (a % m != 0 && ((a < 0) != (m < 0)))
		q--;
	return q;
}

/* Shifts throw where runtime.ShlI64 and ShrI64 do: on a negative count, and
 * on a left shift that loses bits. C leaves a count of 64 or more undefined;
 * Go defines it, so those counts are answered here the way Go answers them. */
static inline int64_t wolfrt_bitshiftleft(int64_t a, int64_t n) {
	if (n < 0)
		wolfrt_panic("negative shift count in BitShiftLeft");
	if (n >= 64) {
		if (a != 0)
			wolfrt_panic("integer overflow in BitShiftLeft");
		return 0;
	}
	int64_t r = (int64_t)((uint64_t)a << n);
	if ((r >> n) != a)
		wolfrt_panic("integer overflow in BitShiftLeft");
	return r;
}

static inline int64_t wolfrt_bitshiftright(int64_t a, int64_t n) {
	if (n < 0)
		wolfrt_panic("negative shift count in BitShiftRight");
	return a >> (n < 64 ? n : 63);
}

/* Floor, Ceiling and Round stop where runtime.RealToI64 throws: on a real
 * that does not fit a machine integer (NaN and the infinities fail the range
 * test too), where the cast alone is undefined. */
static inline int64_t wolfrt_real_to_i64(double x) {
	if (!(x >= -0x1p63 && x < 0x1p63))
		wolfrt_panic("integer overflow in Floor, Ceiling or Round");
	return (int64_t)x;
}

static inline double wolfrt_mod_real(double a, double m) {
	double r = fmod(a, m);
	if (r != 0 && ((r < 0) != (m < 0)))
		r += m;
	return r;
}

/* A complex to a machine-integer power squares over the exponent's magnitude
 * with the schoolbook product, as runtime.PowCInt does: cpow's exp and log
 * give NaN for 0^0, and C's product recovers the infinities Go's does not. */
static inline double complex wolfrt_mul_c64(double complex a, double complex b) {
	return CMPLX(creal(a) * creal(b) - cimag(a) * cimag(b), creal(a) * cimag(b) + cimag(a) * creal(b));
}

static inline double complex wolfrt_power_complex_int(double complex b, int64_t n) {
	bool nan_base = isnan(creal(b)) || isnan(cimag(b)); /* the loop squares b in place */
	double complex out = 1;
	for (uint64_t m = n < 0 ? -(uint64_t)n : (uint64_t)n; m > 0; m >>= 1) {
		if (m & 1)
			out = wolfrt_mul_c64(out, b);
		b = wolfrt_mul_c64(b, b);
	}
	if (n < 0 && !nan_base && !(isfinite(creal(out)) && isfinite(cimag(out))))
		return 0; /* the positive power overflowed: its reciprocal is 0 */
	return n < 0 ? 1 / out : out;
}

static inline int64_t wolfrt_sign_int(int64_t a) { return a > 0 ? 1 : a < 0 ? -1 : 0; }
static inline int64_t wolfrt_sign_real(double a) { return a > 0 ? 1 : a < 0 ? -1 : 0; }
static inline bool wolfrt_evenq(int64_t a) { return a % 2 == 0; }
static inline bool wolfrt_oddq(int64_t a) { return a % 2 != 0; }

static inline int64_t wolfrt_min_i64(int64_t a, int64_t b) { return a < b ? a : b; }
static inline int64_t wolfrt_max_i64(int64_t a, int64_t b) { return a > b ? a : b; }
static inline double wolfrt_min_r64(double a, double b) { return a < b ? a : b; }
static inline double wolfrt_max_r64(double a, double b) { return a > b ? a : b; }

/* ---- heap objects: one header, one release path (F7) ---- */

typedef struct {
	int64_t refs;
	int32_t kind;
} wolfrt_obj;

enum {
	WOLFRT_KI64 = 1,
	WOLFRT_KR64,
	WOLFRT_KC64,
	WOLFRT_KB,
	WOLFRT_KSTR
};

typedef struct {
	wolfrt_obj h;
	int64_t len; /* bytes */
	char *bytes; /* NUL-terminated for convenience */
} wolfrt_string;

typedef struct {
	wolfrt_obj h;
	int64_t rank;
	int64_t dims[2];
	int64_t n; /* total elements */
	void *data;
} wolfrt_tensor;

/* Function values and expressions need the engine runtime; they exist here
 * only as opaque types so exported prototypes parse. */
typedef struct wolfrt_closure wolfrt_closure;
typedef struct wolfrt_expr wolfrt_expr;

static inline void wolfrt_memory_acquire(void *p) {
	if (p)
		((wolfrt_obj *)p)->refs++;
}

static inline void wolfrt_memory_release(void *p) {
	if (!p)
		return;
	wolfrt_obj *o = (wolfrt_obj *)p;
	if (--o->refs > 0)
		return;
	if (o->kind == WOLFRT_KSTR)
		free(((wolfrt_string *)p)->bytes);
	else
		free(((wolfrt_tensor *)p)->data);
	free(p);
}

/* ---- strings (byte strings; Length counts UTF-8 code points) ---- */

static inline wolfrt_string *wolfrt_string_alloc(int64_t len) {
	wolfrt_string *s = (wolfrt_string *)malloc(sizeof(wolfrt_string));
	if (!s)
		wolfrt_panic("out of memory");
	s->h.refs = 0;
	s->h.kind = WOLFRT_KSTR;
	s->len = len;
	s->bytes = (char *)malloc((size_t)len + 1);
	if (!s->bytes)
		wolfrt_panic("out of memory");
	s->bytes[len] = 0;
	return s;
}

static inline wolfrt_string *wolfrt_string_literal(const char *lit) {
	int64_t n = (int64_t)strlen(lit);
	wolfrt_string *s = wolfrt_string_alloc(n);
	memcpy(s->bytes, lit, (size_t)n);
	return s;
}

static inline int64_t wolfrt_string_byte_length(wolfrt_string *s) { return s->len; }

static inline int64_t wolfrt_string_byte(wolfrt_string *s, int64_t i) {
	if (i < 1 || i > s->len)
		wolfrt_panic("string byte index out of range");
	return (int64_t)(unsigned char)s->bytes[i - 1];
}

static inline int64_t wolfrt_string_length(wolfrt_string *s) {
	int64_t n = 0;
	for (int64_t i = 0; i < s->len; i++)
		if (((unsigned char)s->bytes[i] & 0xC0) != 0x80)
			n++;
	return n;
}

static inline wolfrt_string *wolfrt_string_join(wolfrt_string *a, wolfrt_string *b) {
	wolfrt_string *s = wolfrt_string_alloc(a->len + b->len);
	memcpy(s->bytes, a->bytes, (size_t)a->len);
	memcpy(s->bytes + a->len, b->bytes, (size_t)b->len);
	return s;
}

static inline bool wolfrt_string_equal(wolfrt_string *a, wolfrt_string *b) {
	return a->len == b->len && memcmp(a->bytes, b->bytes, (size_t)a->len) == 0;
}

static inline wolfrt_string *wolfrt_min_str(wolfrt_string *a, wolfrt_string *b) {
	int c = memcmp(a->bytes, b->bytes, (size_t)(a->len < b->len ? a->len : b->len));
	return (c < 0 || (c == 0 && a->len <= b->len)) ? a : b;
}

static inline wolfrt_string *wolfrt_max_str(wolfrt_string *a, wolfrt_string *b) {
	return wolfrt_min_str(a, b) == a ? b : a;
}

/* StringTake: first n code points, or last -n when negative; the bytes from
 * code point first up to code point first + want. */
static inline wolfrt_string *wolfrt_string_take(wolfrt_string *s, int64_t n) {
	int64_t chars = wolfrt_string_length(s);
	int64_t want = n >= 0 ? n : -n;
	if (want > chars)
		wolfrt_panic("StringTake: count exceeds string length");
	int64_t first = n >= 0 ? 0 : chars - want, lo = s->len, hi = s->len, k = 0;
	for (int64_t i = 0; i < s->len && hi == s->len; i++) {
		if (((unsigned char)s->bytes[i] & 0xC0) == 0x80)
			continue;
		if (k == first)
			lo = i;
		if (k++ == first + want)
			hi = i;
	}
	wolfrt_string *out = wolfrt_string_alloc(hi - lo);
	memcpy(out->bytes, s->bytes + lo, (size_t)(hi - lo));
	return out;
}

static inline wolfrt_string *wolfrt_int_to_string(int64_t v) {
	char buf[32];
	int n = snprintf(buf, sizeof buf, "%" PRId64, v);
	wolfrt_string *s = wolfrt_string_alloc(n);
	memcpy(s->bytes, buf, (size_t)n);
	return s;
}

/* Note: the engine's ToString prints the shortest round-trip representation;
 * %.17g is round-trippable but not always shortest. */
static inline wolfrt_string *wolfrt_real_to_string(double v) {
	char buf[40];
	int n = snprintf(buf, sizeof buf, "%.17g", v);
	wolfrt_string *s = wolfrt_string_alloc(n);
	memcpy(s->bytes, buf, (size_t)n);
	return s;
}

/* ---- tensors ---- */

static inline size_t wolfrt_elem_size(int32_t kind) {
	switch (kind) {
	case WOLFRT_KI64:
		return sizeof(int64_t);
	case WOLFRT_KR64:
		return sizeof(double);
	case WOLFRT_KC64:
		return sizeof(double complex);
	case WOLFRT_KB:
		return sizeof(bool);
	}
	wolfrt_panic("unknown tensor element kind");
	return 0;
}

static inline wolfrt_tensor *wolfrt_tensor_new(int32_t kind, int64_t rank, int64_t d0, int64_t d1) {
	if (d0 < 0 || (rank == 2 && d1 < 0))
		wolfrt_panic("tensor dimension is negative");
	wolfrt_tensor *t = (wolfrt_tensor *)malloc(sizeof(wolfrt_tensor));
	if (!t)
		wolfrt_panic("out of memory");
	t->h.refs = 0;
	t->h.kind = kind;
	t->rank = rank;
	t->dims[0] = d0;
	t->dims[1] = rank == 2 ? d1 : 1;
	t->n = rank == 2 ? d0 * d1 : d0;
	t->data = calloc(t->n ? (size_t)t->n : 1, wolfrt_elem_size(kind));
	if (!t->data)
		wolfrt_panic("out of memory");
	return t;
}

static inline int64_t wolfrt_tensor_length(wolfrt_tensor *t) { return t->dims[0]; }

static inline wolfrt_tensor *wolfrt_copy_tensor(wolfrt_tensor *t) {
	wolfrt_tensor *out = wolfrt_tensor_new(t->h.kind, t->rank, t->dims[0], t->dims[1]);
	memcpy(out->data, t->data, (size_t)t->n * wolfrt_elem_size(t->h.kind));
	return out;
}

static inline wolfrt_tensor *wolfrt_list_take(wolfrt_tensor *t, int64_t n) {
	if (n < 0 || n > t->dims[0])
		wolfrt_panic("Take: count out of range");
	wolfrt_tensor *out = wolfrt_tensor_new(t->h.kind, 1, n, 0);
	memcpy(out->data, t->data, (size_t)n * wolfrt_elem_size(t->h.kind));
	return out;
}

/* Checked Part resolves 1-based indices with negative-from-the-end
 * semantics, like the engine: index -1 is the last element. */
static inline int64_t wolfrt_resolve_index(int64_t i, int64_t n, const char *what) {
	if (i < 0)
		i = n + 1 + i;
	if (i < 1 || i > n)
		wolfrt_panic(what);
	return i;
}

static inline wolfrt_tensor *wolfrt_part_row(wolfrt_tensor *t, int64_t i) {
	if (t->rank != 2)
		wolfrt_panic("Part: row extraction needs a rank-2 tensor");
	i = wolfrt_resolve_index(i, t->dims[0], "Part: row index out of range");
	wolfrt_tensor *out = wolfrt_tensor_new(t->h.kind, 1, t->dims[1], 0);
	size_t es = wolfrt_elem_size(t->h.kind);
	memcpy(out->data, (char *)t->data + (size_t)(i - 1) * (size_t)t->dims[1] * es,
	       (size_t)t->dims[1] * es);
	return out;
}

/* One definition of new/part/setpart per element type; the compiler
 * monomorphises call sites to these names. Part is 1-based; the unchecked
 * variants back compiler-generated loops whose bounds are proven. */
#define WOLFRT_TENSOR_OPS(S, T, K)                                              \
	static inline wolfrt_tensor *wolfrt_list_new_##S(int64_t n) {               \
		return wolfrt_tensor_new(K, 1, n, 0);                                   \
	}                                                                           \
	static inline wolfrt_tensor *wolfrt_matrix_new_##S(int64_t r, int64_t c) {  \
		return wolfrt_tensor_new(K, 2, r, c);                                   \
	}                                                                           \
	static inline wolfrt_tensor *wolfrt_fill_##S(wolfrt_tensor *t, T v) {       \
		static const T zero; /* all-zero bits, like calloc's storage */         \
		if (memcmp(&v, &zero, sizeof(T)) != 0)                                  \
			for (int64_t k = 0; k < t->n; k++)                                  \
				((T *)t->data)[k] = v;                                          \
		return t;                                                               \
	}                                                                           \
	static inline wolfrt_tensor *wolfrt_list_fill_##S(int64_t n, T v) {         \
		return wolfrt_fill_##S(wolfrt_tensor_new(K, 1, n, 0), v);               \
	}                                                                           \
	static inline wolfrt_tensor *wolfrt_matrix_fill_##S(int64_t r, int64_t c,   \
	                                                    T v) {                  \
		return wolfrt_fill_##S(wolfrt_tensor_new(K, 2, r, c), v);               \
	}                                                                           \
	static inline T wolfrt_part_unsafe_1_##S(wolfrt_tensor *t, int64_t i) {     \
		return ((T *)t->data)[i - 1];                                           \
	}                                                                           \
	static inline T wolfrt_part_1_##S(wolfrt_tensor *t, int64_t i) {            \
		i = wolfrt_resolve_index(i, t->dims[0], "Part index out of range");     \
		return ((T *)t->data)[i - 1];                                           \
	}                                                                           \
	static inline T wolfrt_part_unsafe_2_##S(wolfrt_tensor *t, int64_t i,       \
	                                         int64_t j) {                       \
		return ((T *)t->data)[(i - 1) * t->dims[1] + (j - 1)];                  \
	}                                                                           \
	static inline T wolfrt_part_2_##S(wolfrt_tensor *t, int64_t i, int64_t j) { \
		i = wolfrt_resolve_index(i, t->dims[0], "Part index out of range");     \
		j = wolfrt_resolve_index(j, t->dims[1], "Part index out of range");     \
		return ((T *)t->data)[(i - 1) * t->dims[1] + (j - 1)];                  \
	}                                                                           \
	static inline wolfrt_tensor *wolfrt_setpart_unsafe_1_##S(wolfrt_tensor *t,  \
	                                                         int64_t i, T v) {  \
		((T *)t->data)[i - 1] = v;                                              \
		return t;                                                               \
	}                                                                           \
	static inline wolfrt_tensor *wolfrt_setpart_1_##S(wolfrt_tensor *t,         \
	                                                  int64_t i, T v) {         \
		i = wolfrt_resolve_index(i, t->dims[0],                                 \
		                         "Part assignment index out of range");        \
		((T *)t->data)[i - 1] = v;                                              \
		return t;                                                               \
	}                                                                           \
	static inline wolfrt_tensor *wolfrt_setpart_unsafe_2_##S(                   \
	    wolfrt_tensor *t, int64_t i, int64_t j, T v) {                          \
		((T *)t->data)[(i - 1) * t->dims[1] + (j - 1)] = v;                     \
		return t;                                                               \
	}                                                                           \
	static inline wolfrt_tensor *wolfrt_setpart_2_##S(wolfrt_tensor *t,         \
	                                                  int64_t i, int64_t j,     \
	                                                  T v) {                    \
		i = wolfrt_resolve_index(i, t->dims[0],                                 \
		                         "Part assignment index out of range");        \
		j = wolfrt_resolve_index(j, t->dims[1],                                 \
		                         "Part assignment index out of range");        \
		((T *)t->data)[(i - 1) * t->dims[1] + (j - 1)] = v;                     \
		return t;                                                               \
	}

WOLFRT_TENSOR_OPS(i64, int64_t, WOLFRT_KI64)
WOLFRT_TENSOR_OPS(r64, double, WOLFRT_KR64)
WOLFRT_TENSOR_OPS(c64, double complex, WOLFRT_KC64)
WOLFRT_TENSOR_OPS(b, bool, WOLFRT_KB)

#undef WOLFRT_TENSOR_OPS

/* ---- elementwise tensor arithmetic ---- */

static inline void wolfrt_tensor_check_conformant(wolfrt_tensor *a, wolfrt_tensor *b) {
	if (a->h.kind != b->h.kind || a->rank != b->rank || a->dims[0] != b->dims[0] ||
	    a->dims[1] != b->dims[1])
		wolfrt_panic("tensor arithmetic: shapes or element types differ");
}

/* Every elementwise operation takes a last argument into: the operand the
 * compiler found dying at the instruction (native_intoK), or NULL. The
 * operation consumes into's reference. When it is the only one, the result
 * is written over into, each element read before it is written; otherwise
 * the result is fresh and the reference moves to it. */
static inline wolfrt_tensor *wolfrt_result_into(wolfrt_tensor *like, wolfrt_tensor *into) {
	if (into && into->h.refs == 1)
		return into;
	wolfrt_tensor *out = wolfrt_tensor_new(like->h.kind, like->rank, like->dims[0], like->dims[1]);
	if (into) {
		out->h.refs = 1;
		wolfrt_memory_release(into);
	}
	return out;
}

#define WOLFRT_TT_LOOP(OPI, OPR, OPC)                                         \
	wolfrt_tensor_check_conformant(a, b);                                     \
	wolfrt_tensor *out = wolfrt_result_into(a, into);                         \
	switch (a->h.kind) {                                                      \
	case WOLFRT_KI64:                                                         \
		for (int64_t i = 0; i < a->n; i++)                                    \
			((int64_t *)out->data)[i] =                                       \
			    OPI(((int64_t *)a->data)[i], ((int64_t *)b->data)[i]);        \
		break;                                                                \
	case WOLFRT_KR64:                                                         \
		for (int64_t i = 0; i < a->n; i++)                                    \
			((double *)out->data)[i] =                                        \
			    ((double *)a->data)[i] OPR((double *)b->data)[i];             \
		break;                                                                \
	case WOLFRT_KC64:                                                         \
		for (int64_t i = 0; i < a->n; i++)                                    \
			((double complex *)out->data)[i] =                                \
			    ((double complex *)a->data)[i] OPC(                           \
			        (double complex *)b->data)[i];                            \
		break;                                                                \
	default:                                                                  \
		wolfrt_panic("tensor arithmetic on non-numeric tensor");              \
	}                                                                         \
	return out;

static inline wolfrt_tensor *wolfrt_tensor_plus(wolfrt_tensor *a, wolfrt_tensor *b,
                                               wolfrt_tensor *into) {
	WOLFRT_TT_LOOP(wolfrt_add_i64, +, +)
}
static inline wolfrt_tensor *wolfrt_tensor_times(wolfrt_tensor *a, wolfrt_tensor *b,
                                               wolfrt_tensor *into) {
	WOLFRT_TT_LOOP(wolfrt_mul_i64, *, *)
}
static inline wolfrt_tensor *wolfrt_tensor_subtract(wolfrt_tensor *a, wolfrt_tensor *b,
                                               wolfrt_tensor *into) {
	WOLFRT_TT_LOOP(wolfrt_sub_i64, -, -)
}

#undef WOLFRT_TT_LOOP

static inline wolfrt_tensor *wolfrt_tensor_minus(wolfrt_tensor *t, wolfrt_tensor *into) {
	wolfrt_tensor *out = wolfrt_result_into(t, into);
	switch (t->h.kind) {
	case WOLFRT_KI64:
		for (int64_t i = 0; i < t->n; i++)
			((int64_t *)out->data)[i] = wolfrt_neg_i64(((int64_t *)t->data)[i]);
		break;
	case WOLFRT_KR64:
		for (int64_t i = 0; i < t->n; i++)
			((double *)out->data)[i] = -((double *)t->data)[i];
		break;
	case WOLFRT_KC64:
		for (int64_t i = 0; i < t->n; i++)
			((double complex *)out->data)[i] = -((double complex *)t->data)[i];
		break;
	default:
		wolfrt_panic("Minus on non-numeric tensor");
	}
	return out;
}

/* tensor⊕scalar and scalar⊕tensor, one definition per element type. */
#define WOLFRT_TS_OPS(S, T, OPFN_PLUS, OPFN_TIMES, OPFN_SUB)                    \
	static inline wolfrt_tensor *wolfrt_tensor_scalar_plus_##S(                 \
	    wolfrt_tensor *t, T v, wolfrt_tensor *into) {                           \
		wolfrt_tensor *out = wolfrt_result_into(t, into);                       \
		for (int64_t i = 0; i < t->n; i++)                                      \
			((T *)out->data)[i] = OPFN_PLUS(((T *)t->data)[i], v);              \
		return out;                                                             \
	}                                                                           \
	static inline wolfrt_tensor *wolfrt_tensor_scalar_times_##S(                \
	    wolfrt_tensor *t, T v, wolfrt_tensor *into) {                           \
		wolfrt_tensor *out = wolfrt_result_into(t, into);                       \
		for (int64_t i = 0; i < t->n; i++)                                      \
			((T *)out->data)[i] = OPFN_TIMES(((T *)t->data)[i], v);             \
		return out;                                                             \
	}                                                                           \
	static inline wolfrt_tensor *wolfrt_tensor_scalar_subtract_##S(             \
	    wolfrt_tensor *t, T v, wolfrt_tensor *into) {                           \
		wolfrt_tensor *out = wolfrt_result_into(t, into);                       \
		for (int64_t i = 0; i < t->n; i++)                                      \
			((T *)out->data)[i] = OPFN_SUB(((T *)t->data)[i], v);               \
		return out;                                                             \
	}                                                                           \
	static inline wolfrt_tensor *wolfrt_scalar_tensor_plus_##S(                 \
	    T v, wolfrt_tensor *t, wolfrt_tensor *into) {                           \
		return wolfrt_tensor_scalar_plus_##S(t, v, into);                       \
	}                                                                           \
	static inline wolfrt_tensor *wolfrt_scalar_tensor_times_##S(                \
	    T v, wolfrt_tensor *t, wolfrt_tensor *into) {                           \
		return wolfrt_tensor_scalar_times_##S(t, v, into);                      \
	}                                                                           \
	static inline wolfrt_tensor *wolfrt_scalar_tensor_subtract_##S(             \
	    T v, wolfrt_tensor *t, wolfrt_tensor *into) {                           \
		wolfrt_tensor *out = wolfrt_result_into(t, into);                       \
		for (int64_t i = 0; i < t->n; i++)                                      \
			((T *)out->data)[i] = OPFN_SUB(v, ((T *)t->data)[i]);               \
		return out;                                                             \
	}

#define WOLFRT_RAW_PLUS(a, b) ((a) + (b))
#define WOLFRT_RAW_TIMES(a, b) ((a) * (b))
#define WOLFRT_RAW_SUB(a, b) ((a) - (b))

WOLFRT_TS_OPS(i64, int64_t, wolfrt_add_i64, wolfrt_mul_i64, wolfrt_sub_i64)
WOLFRT_TS_OPS(r64, double, WOLFRT_RAW_PLUS, WOLFRT_RAW_TIMES, WOLFRT_RAW_SUB)
WOLFRT_TS_OPS(c64, double complex, WOLFRT_RAW_PLUS, WOLFRT_RAW_TIMES, WOLFRT_RAW_SUB)

#undef WOLFRT_TS_OPS
#undef WOLFRT_RAW_PLUS
#undef WOLFRT_RAW_TIMES
#undef WOLFRT_RAW_SUB

/* ---- tensor math maps (real tensors) ---- */

#define WOLFRT_TENSOR_MATH(NAME, FN)                                          \
	static inline wolfrt_tensor *wolfrt_tensor_math_##NAME(                   \
	    wolfrt_tensor *t, wolfrt_tensor *into) {                              \
		if (t->h.kind != WOLFRT_KR64)                                         \
			wolfrt_panic("tensor math requires a real tensor");              \
		wolfrt_tensor *out = wolfrt_result_into(t, into);                     \
		for (int64_t i = 0; i < t->n; i++)                                    \
			((double *)out->data)[i] = FN(((double *)t->data)[i]);            \
		return out;                                                           \
	}

WOLFRT_TENSOR_MATH(sin, sin)
WOLFRT_TENSOR_MATH(cos, cos)
WOLFRT_TENSOR_MATH(tan, tan)
WOLFRT_TENSOR_MATH(exp, exp)
WOLFRT_TENSOR_MATH(log, log)
WOLFRT_TENSOR_MATH(sqrt, sqrt)
WOLFRT_TENSOR_MATH(abs, fabs)

#undef WOLFRT_TENSOR_MATH

/* ---- Dot (the BLAS stand-in; real tensors, like the library's blas) ---- */

static inline double wolfrt_dot_vv(wolfrt_tensor *a, wolfrt_tensor *b) {
	if (a->dims[0] != b->dims[0])
		wolfrt_panic("Dot: length mismatch");
	double s = 0;
	for (int64_t i = 0; i < a->dims[0]; i++)
		s += ((double *)a->data)[i] * ((double *)b->data)[i];
	return s;
}

static inline wolfrt_tensor *wolfrt_dot_mv(wolfrt_tensor *m, wolfrt_tensor *v) {
	if (m->dims[1] != v->dims[0])
		wolfrt_panic("Dot: shape mismatch");
	wolfrt_tensor *out = wolfrt_tensor_new(WOLFRT_KR64, 1, m->dims[0], 0);
	for (int64_t i = 0; i < m->dims[0]; i++) {
		double s = 0;
		for (int64_t j = 0; j < m->dims[1]; j++)
			s += ((double *)m->data)[i * m->dims[1] + j] * ((double *)v->data)[j];
		((double *)out->data)[i] = s;
	}
	return out;
}

static inline wolfrt_tensor *wolfrt_dot_mm(wolfrt_tensor *a, wolfrt_tensor *b) {
	if (a->dims[1] != b->dims[0])
		wolfrt_panic("Dot: shape mismatch");
	wolfrt_tensor *out = wolfrt_tensor_new(WOLFRT_KR64, 2, a->dims[0], b->dims[1]);
	for (int64_t i = 0; i < a->dims[0]; i++)
		for (int64_t k = 0; k < a->dims[1]; k++) {
			double aik = ((double *)a->data)[i * a->dims[1] + k];
			for (int64_t j = 0; j < b->dims[1]; j++)
				((double *)out->data)[i * b->dims[1] + j] +=
				    aik * ((double *)b->data)[k * b->dims[1] + j];
		}
	return out;
}

/* ---- character codes ---- */

static inline wolfrt_tensor *wolfrt_to_char_code(wolfrt_string *s) {
	wolfrt_tensor *out = wolfrt_tensor_new(WOLFRT_KI64, 1, wolfrt_string_length(s), 0);
	int64_t k = 0;
	for (int64_t i = 0; i < s->len;) {
		unsigned char c = (unsigned char)s->bytes[i];
		int64_t cp;
		int len;
		if (c < 0x80) {
			cp = c;
			len = 1;
		} else if ((c & 0xE0) == 0xC0) {
			cp = c & 0x1F;
			len = 2;
		} else if ((c & 0xF0) == 0xE0) {
			cp = c & 0x0F;
			len = 3;
		} else {
			cp = c & 0x07;
			len = 4;
		}
		for (int j = 1; j < len && i + j < s->len; j++)
			cp = (cp << 6) | ((unsigned char)s->bytes[i + j] & 0x3F);
		((int64_t *)out->data)[k++] = cp;
		i += len;
	}
	return out;
}

static inline wolfrt_string *wolfrt_from_char_code(wolfrt_tensor *t) {
	/* worst case 4 bytes per code point */
	char *buf = (char *)malloc((size_t)t->n * 4 + 1);
	if (!buf)
		wolfrt_panic("out of memory");
	int64_t w = 0;
	for (int64_t i = 0; i < t->n; i++) {
		int64_t cp = ((int64_t *)t->data)[i];
		if (cp < 0x80) {
			buf[w++] = (char)cp;
		} else if (cp < 0x800) {
			buf[w++] = (char)(0xC0 | (cp >> 6));
			buf[w++] = (char)(0x80 | (cp & 0x3F));
		} else if (cp < 0x10000) {
			buf[w++] = (char)(0xE0 | (cp >> 12));
			buf[w++] = (char)(0x80 | ((cp >> 6) & 0x3F));
			buf[w++] = (char)(0x80 | (cp & 0x3F));
		} else {
			buf[w++] = (char)(0xF0 | (cp >> 18));
			buf[w++] = (char)(0x80 | ((cp >> 12) & 0x3F));
			buf[w++] = (char)(0x80 | ((cp >> 6) & 0x3F));
			buf[w++] = (char)(0x80 | (cp & 0x3F));
		}
	}
	wolfrt_string *s = wolfrt_string_alloc(w);
	memcpy(s->bytes, buf, (size_t)w);
	free(buf);
	return s;
}

/* ---- random numbers (xorshift64*, deterministic; seed via wolfrt_seed) ---- */

static uint64_t wolfrt_rng_state = 88172645463325252ULL;

static inline void wolfrt_seed(uint64_t s) { wolfrt_rng_state = s ? s : 1; }

static inline uint64_t wolfrt_rng_next(void) {
	uint64_t x = wolfrt_rng_state;
	x ^= x >> 12;
	x ^= x << 25;
	x ^= x >> 27;
	wolfrt_rng_state = x;
	return x * 2685821657736338717ULL;
}

static inline double wolfrt_random_real01(void) {
	return (double)(wolfrt_rng_next() >> 11) / 9007199254740992.0;
}

static inline double wolfrt_random_real_range(double lo, double hi) {
	return lo + wolfrt_random_real01() * (hi - lo);
}

static inline int64_t wolfrt_random_int_range(int64_t lo, int64_t hi) {
	if (hi < lo)
		wolfrt_panic("RandomInteger: empty range");
	return lo + (int64_t)(wolfrt_rng_next() % (uint64_t)(hi - lo + 1));
}

/* ---- engine-only features: fatal in standalone mode (F10) ---- */

static inline wolfrt_expr *wolfrt_constant(const char *fullform) {
	(void)fullform;
	wolfrt_panic("expression constants require the Wolfram engine; "
	             "standalone exports disable engine features");
	return 0;
}

static inline wolfrt_expr *wolfrt_kernel_call(wolfrt_expr *e) {
	(void)e;
	wolfrt_panic("KernelFunction requires the Wolfram engine; "
	             "standalone exports disable engine features");
	return 0;
}

#define WOLFRT_BOX_NUMBER(S, T)                                       \
	static inline wolfrt_expr *wolfrt_box_number_##S(T v) {           \
		(void)v;                                                      \
		wolfrt_panic("expression values require the Wolfram engine"); \
		return 0;                                                     \
	}

WOLFRT_BOX_NUMBER(i64, int64_t)
WOLFRT_BOX_NUMBER(r64, double)
WOLFRT_BOX_NUMBER(c64, double complex)

#undef WOLFRT_BOX_NUMBER

static inline bool wolfrt_sameq_expr(wolfrt_expr *a, wolfrt_expr *b) {
	(void)a;
	(void)b;
	wolfrt_panic("expression values require the Wolfram engine");
	return false;
}

#endif /* WOLFRT_H */
`

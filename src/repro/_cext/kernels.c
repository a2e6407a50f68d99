/* repro._cext.kernels — fixed-width u64-limb kernels for the cext backend.
 *
 * The Python side (repro/backend/cext.py) converts big-int masks into
 * little-endian u64-limb byte buffers via repro.backend.limbs and calls
 * down into this module; results travel back either as machine ints or
 * as freshly built Python ints.  The contract, pinned by LIMB_BYTES and
 * ABI_VERSION below and re-checked by the probe at import time:
 *
 *   - every mask buffer is little-endian, a whole number of 8-byte
 *     limbs wide (mask_to_limbs), except where a kernel documents that
 *     it accepts the minimal byte width (mask_to_bytes);
 *   - a batch of masks is the concatenation of equal-width rows
 *     (masks_to_limbs), indexed here as row * n_limbs + limb;
 *   - kernels never allocate Python objects inside their inner loops —
 *     work happens on flat uint64_t arrays, and results are converted
 *     once at the end.
 *
 * Only kernels whose exact-integer semantics survive fixed-width limbs
 * live here: popcounts, bit enumeration, transposes, chunked
 * subset-construction step tables, GF(2) elimination,
 * rectangle cell masks.  Anything needing unbounded integers (Bareiss,
 * transfer-matrix products, the SWAR bilinear sweep) stays in Python,
 * delegated to the inherited reference/words kernels.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

#define LIMB_BYTES 8
#define LIMB_BITS 64
/* Bump when the buffer contract above changes; cext.py refuses to use a
 * stale artifact whose ABI_VERSION it does not expect. */
#define ABI_VERSION 1

/* Interned "bit_count" for popcount_rows; set once at module init. */
static PyObject *state_str_bit_count = NULL;

#if defined(__GNUC__) || defined(__clang__)
#define POPCOUNT64(x) ((int)__builtin_popcountll(x))
#define CTZ64(x) ((int)__builtin_ctzll(x))
#define CLZ64(x) ((int)__builtin_clzll(x))
#else
static int POPCOUNT64(uint64_t x) {
    x = x - ((x >> 1) & 0x5555555555555555ULL);
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int)((x * 0x0101010101010101ULL) >> 56);
}
static int CTZ64(uint64_t x) {
    int n = 0;
    while (!(x & 1)) { x >>= 1; n++; }
    return n;
}
static int CLZ64(uint64_t x) {
    int n = 0;
    while (!(x >> 63)) { x <<= 1; n++; }
    return n;
}
#endif

/* ------------------------------------------------------------------ */
/* Buffer plumbing                                                     */
/* ------------------------------------------------------------------ */

/* Read a uint64 limb from a byte buffer that may not be limb-aligned at
 * its tail (minimal-width mask_to_bytes buffers). */
static uint64_t
read_limb(const unsigned char *buf, Py_ssize_t len, Py_ssize_t limb)
{
    Py_ssize_t base = limb * LIMB_BYTES;
    Py_ssize_t avail = len - base;
    if (avail >= LIMB_BYTES) {
        uint64_t value;
        memcpy(&value, buf + base, LIMB_BYTES);
#if PY_BIG_ENDIAN
        value = __builtin_bswap64(value);
#endif
        return value;
    }
    uint64_t value = 0;
    for (Py_ssize_t i = 0; i < avail; i++)
        value |= (uint64_t)buf[base + i] << (8 * i);
    return value;
}

static PyObject *
int_from_limbs(const unsigned char *buf, size_t n_bytes)
{
#if PY_VERSION_HEX >= 0x030D0000
    return PyLong_FromNativeBytes(
        buf, n_bytes,
        Py_ASNATIVEBYTES_LITTLE_ENDIAN | Py_ASNATIVEBYTES_UNSIGNED_BUFFER);
#else
    return _PyLong_FromByteArray(buf, n_bytes, /*little_endian=*/1, /*is_signed=*/0);
#endif
}

#if PY_BIG_ENDIAN
/* Little-endian store of limbs into an output byte buffer. */
static void
store_limbs(unsigned char *out, const uint64_t *limbs, Py_ssize_t n_limbs)
{
    for (Py_ssize_t i = 0; i < n_limbs; i++) {
        uint64_t value = __builtin_bswap64(limbs[i]);
        memcpy(out + i * LIMB_BYTES, &value, LIMB_BYTES);
    }
}
#endif

static PyObject *
int_from_u64(const uint64_t *limbs, Py_ssize_t n_limbs)
{
#if PY_BIG_ENDIAN
    PyObject *result;
    unsigned char *tmp = PyMem_Malloc((size_t)n_limbs * LIMB_BYTES);
    if (tmp == NULL)
        return PyErr_NoMemory();
    store_limbs(tmp, limbs, n_limbs);
    result = int_from_limbs(tmp, (size_t)n_limbs * LIMB_BYTES);
    PyMem_Free(tmp);
    return result;
#else
    return int_from_limbs((const unsigned char *)limbs, (size_t)n_limbs * LIMB_BYTES);
#endif
}

static Py_ssize_t
limb_count(Py_ssize_t n_bytes)
{
    return (n_bytes + LIMB_BYTES - 1) / LIMB_BYTES;
}

/* ------------------------------------------------------------------ */
/* popcount / bit enumeration                                          */
/* ------------------------------------------------------------------ */

static PyObject *
kernels_popcount(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_buffer view;
    if (PyObject_GetBuffer(arg, &view, PyBUF_SIMPLE) < 0)
        return NULL;
    const unsigned char *buf = view.buf;
    Py_ssize_t n_limbs = limb_count(view.len);
    unsigned long long total = 0;
    for (Py_ssize_t i = 0; i < n_limbs; i++)
        total += (unsigned long long)POPCOUNT64(read_limb(buf, view.len, i));
    PyBuffer_Release(&view);
    return PyLong_FromUnsignedLongLong(total);
}

static PyObject *
kernels_popcount_rows(PyObject *Py_UNUSED(self), PyObject *arg)
{
    /* Sum of int.bit_count over a sequence of Python ints.  The win is
     * hoisting the loop (no generator frame, no boxed running sum); the
     * per-element popcount is CPython's own C implementation. */
    PyObject *seq = PySequence_Fast(arg, "popcount_rows expects a sequence");
    if (seq == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    PyObject **items = PySequence_Fast_ITEMS(seq);
    unsigned long long total = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *count = PyObject_CallMethodNoArgs(items[i], state_str_bit_count);
        if (count == NULL) {
            Py_DECREF(seq);
            return NULL;
        }
        unsigned long long value = PyLong_AsUnsignedLongLong(count);
        Py_DECREF(count);
        if (value == (unsigned long long)-1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return NULL;
        }
        total += value;
    }
    Py_DECREF(seq);
    return PyLong_FromUnsignedLongLong(total);
}

static PyObject *
kernels_bit_indices(PyObject *Py_UNUSED(self), PyObject *arg)
{
    Py_buffer view;
    if (PyObject_GetBuffer(arg, &view, PyBUF_SIMPLE) < 0)
        return NULL;
    const unsigned char *buf = view.buf;
    Py_ssize_t n_limbs = limb_count(view.len);

    /* First pass: size the list exactly, so appends never reallocate. */
    Py_ssize_t total = 0;
    for (Py_ssize_t i = 0; i < n_limbs; i++)
        total += POPCOUNT64(read_limb(buf, view.len, i));
    PyObject *list = PyList_New(total);
    if (list == NULL) {
        PyBuffer_Release(&view);
        return NULL;
    }
    Py_ssize_t out = 0;
    for (Py_ssize_t i = 0; i < n_limbs; i++) {
        uint64_t limb = read_limb(buf, view.len, i);
        long long base = (long long)i * LIMB_BITS;
        while (limb) {
            int bit = CTZ64(limb);
            PyObject *index = PyLong_FromLongLong(base + bit);
            if (index == NULL) {
                Py_DECREF(list);
                PyBuffer_Release(&view);
                return NULL;
            }
            PyList_SET_ITEM(list, out++, index);
            limb &= limb - 1;
        }
    }
    PyBuffer_Release(&view);
    return list;
}

/* ------------------------------------------------------------------ */
/* transpose_masks                                                     */
/* ------------------------------------------------------------------ */

static PyObject *
kernels_transpose(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer rows;
    Py_ssize_t n_rows, n_cols;
    if (!PyArg_ParseTuple(args, "y*nn:transpose", &rows, &n_rows, &n_cols))
        return NULL;
    Py_ssize_t row_limbs = n_cols > 0 ? (n_cols + LIMB_BITS - 1) / LIMB_BITS : 1;
    if (rows.len != n_rows * row_limbs * LIMB_BYTES) {
        PyBuffer_Release(&rows);
        return PyErr_Format(PyExc_ValueError,
                            "transpose: buffer holds %zd bytes, expected %zd",
                            rows.len, n_rows * row_limbs * LIMB_BYTES);
    }
    Py_ssize_t col_stride = ((n_rows + LIMB_BITS - 1) / LIMB_BITS) * LIMB_BYTES;
    if (n_rows == 0)
        col_stride = LIMB_BYTES;
    PyObject *out_bytes = PyBytes_FromStringAndSize(NULL, n_cols * col_stride);
    if (out_bytes == NULL) {
        PyBuffer_Release(&rows);
        return NULL;
    }
    unsigned char *out = (unsigned char *)PyBytes_AS_STRING(out_bytes);
    memset(out, 0, (size_t)(n_cols * col_stride));
    const unsigned char *buf = rows.buf;
    for (Py_ssize_t i = 0; i < n_rows; i++) {
        const unsigned char *row = buf + i * row_limbs * LIMB_BYTES;
        Py_ssize_t row_len = row_limbs * LIMB_BYTES;
        unsigned char row_bit = (unsigned char)(1u << (i & 7));
        Py_ssize_t row_byte = i >> 3;
        for (Py_ssize_t w = 0; w < row_limbs; w++) {
            uint64_t limb = read_limb(row, row_len, w);
            long long base = (long long)w * LIMB_BITS;
            while (limb) {
                long long j = base + CTZ64(limb);
                limb &= limb - 1;
                if (j >= n_cols)  /* contract violation; stay memory-safe */
                    continue;
                out[j * col_stride + row_byte] |= row_bit;
            }
        }
    }
    PyBuffer_Release(&rows);
    return out_bytes;
}

/* ------------------------------------------------------------------ */
/* fold_rows (one-shot OR-fold over Python int rows)                   */
/* ------------------------------------------------------------------ */

static PyObject *
kernels_fold_rows(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *table;
    Py_buffer mask;
    if (!PyArg_ParseTuple(args, "Oy*:fold_rows", &table, &mask))
        return NULL;
    PyObject *seq = PySequence_Fast(table, "fold_rows expects a sequence");
    if (seq == NULL) {
        PyBuffer_Release(&mask);
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    PyObject **items = PySequence_Fast_ITEMS(seq);
    const unsigned char *buf = mask.buf;
    Py_ssize_t n_limbs = limb_count(mask.len);
    PyObject *acc = PyLong_FromLong(0);
    if (acc == NULL)
        goto fail;
    for (Py_ssize_t w = 0; w < n_limbs; w++) {
        uint64_t limb = read_limb(buf, mask.len, w);
        long long base = (long long)w * LIMB_BITS;
        while (limb) {
            long long i = base + CTZ64(limb);
            limb &= limb - 1;
            if (i >= n) {
                PyErr_Format(PyExc_IndexError,
                             "fold_rows: bit %lld out of range for table of %zd",
                             i, n);
                Py_DECREF(acc);
                goto fail;
            }
            PyObject *merged = PyNumber_InPlaceOr(acc, items[i]);
            Py_DECREF(acc);
            if (merged == NULL)
                goto fail;
            acc = merged;
        }
    }
    Py_DECREF(seq);
    PyBuffer_Release(&mask);
    return acc;
fail:
    Py_DECREF(seq);
    PyBuffer_Release(&mask);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* StepTable: chunked subset-construction step tables                  */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    /* entries[(chunk * 256 + byte) * n_limbs + w]: the OR of the rows
     * selected by `byte` within 8-row chunk `chunk`, as u64 limbs. */
    uint64_t *entries;
    Py_ssize_t n_chunks;
    Py_ssize_t n_limbs;     /* limbs per successor mask */
    Py_ssize_t mask_bytes;  /* expected input buffer width */
} StepTable;

static void
StepTable_dealloc(StepTable *self)
{
    PyMem_Free(self->entries);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
StepTable_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    Py_buffer table;
    Py_ssize_t n_states;
    static char *keywords[] = {"table", "n_states", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "y*n:StepTable", keywords,
                                     &table, &n_states))
        return NULL;
    if (n_states <= 0) {
        PyBuffer_Release(&table);
        return PyErr_Format(PyExc_ValueError, "StepTable: n_states must be positive");
    }
    Py_ssize_t n_limbs = (n_states + LIMB_BITS - 1) / LIMB_BITS;
    Py_ssize_t row_bytes = n_limbs * LIMB_BYTES;
    if (table.len != n_states * row_bytes) {
        Py_ssize_t got = table.len;
        PyBuffer_Release(&table);
        return PyErr_Format(PyExc_ValueError,
                            "StepTable: buffer holds %zd bytes, expected %zd",
                            got, n_states * row_bytes);
    }
    Py_ssize_t n_chunks = (n_states + 7) / 8;
    StepTable *self = (StepTable *)type->tp_alloc(type, 0);
    if (self == NULL) {
        PyBuffer_Release(&table);
        return NULL;
    }
    self->n_chunks = n_chunks;
    self->n_limbs = n_limbs;
    self->mask_bytes = row_bytes;
    self->entries = PyMem_Calloc((size_t)(n_chunks * 256 * n_limbs), LIMB_BYTES);
    if (self->entries == NULL) {
        PyBuffer_Release(&table);
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    const unsigned char *rows = table.buf;
    /* entry[v] = entry[v ^ lowbit(v)] | row[chunk*8 + ctz(v)] — one OR
     * per entry, the same doubling the words backend uses. */
    for (Py_ssize_t c = 0; c < n_chunks; c++) {
        int width = (int)(n_states - c * 8 < 8 ? n_states - c * 8 : 8);
        uint64_t *chunk = self->entries + c * 256 * n_limbs;
        for (int v = 1; v < (1 << width); v++) {
            int low = v & -v;
            int bit = CTZ64((uint64_t)low);
            const unsigned char *row = rows + (c * 8 + bit) * row_bytes;
            const uint64_t *prev = chunk + (Py_ssize_t)(v ^ low) * n_limbs;
            uint64_t *dst = chunk + (Py_ssize_t)v * n_limbs;
            for (Py_ssize_t w = 0; w < n_limbs; w++)
                dst[w] = prev[w] | read_limb(row, row_bytes, w);
        }
    }
    PyBuffer_Release(&table);
    return (PyObject *)self;
}

static PyObject *
StepTable_call(StepTable *self, PyObject *args, PyObject *kwds)
{
    Py_buffer mask;
    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0)
        return PyErr_Format(PyExc_TypeError, "StepTable takes no keyword arguments");
    if (!PyArg_ParseTuple(args, "y*:StepTable.__call__", &mask))
        return NULL;
    if (mask.len != self->mask_bytes) {
        Py_ssize_t got = mask.len;
        PyBuffer_Release(&mask);
        return PyErr_Format(PyExc_ValueError,
                            "StepTable: mask buffer holds %zd bytes, expected %zd",
                            got, self->mask_bytes);
    }
    Py_ssize_t n_limbs = self->n_limbs;
    uint64_t stack_out[32];
    uint64_t *out = stack_out;
    if (n_limbs > 32) {
        out = PyMem_Calloc((size_t)n_limbs, LIMB_BYTES);
        if (out == NULL) {
            PyBuffer_Release(&mask);
            return PyErr_NoMemory();
        }
    } else {
        memset(out, 0, (size_t)n_limbs * LIMB_BYTES);
    }
    const unsigned char *bytes = mask.buf;
    Py_ssize_t n_bytes = self->n_chunks < mask.len ? self->n_chunks : mask.len;
    for (Py_ssize_t c = 0; c < n_bytes; c++) {
        unsigned char byte = bytes[c];
        if (byte) {
            const uint64_t *entry = self->entries + (c * 256 + byte) * n_limbs;
            for (Py_ssize_t w = 0; w < n_limbs; w++)
                out[w] |= entry[w];
        }
    }
    PyObject *result = int_from_u64(out, n_limbs);
    if (out != stack_out)
        PyMem_Free(out);
    PyBuffer_Release(&mask);
    return result;
}

static PyTypeObject StepTableType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._cext.kernels.StepTable",
    .tp_basicsize = sizeof(StepTable),
    .tp_dealloc = (destructor)StepTable_dealloc,
    .tp_call = (ternaryfunc)StepTable_call,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = StepTable_new,
    .tp_doc = "Chunked subset-construction step table over u64 limbs.",
};

/* ------------------------------------------------------------------ */
/* GF(2) rank                                                          */
/* ------------------------------------------------------------------ */

static PyObject *
kernels_gf2_rank(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer rows;
    Py_ssize_t n_rows, n_limbs;
    if (!PyArg_ParseTuple(args, "y*nn:gf2_rank", &rows, &n_rows, &n_limbs))
        return NULL;
    if (n_limbs <= 0 || rows.len != n_rows * n_limbs * LIMB_BYTES) {
        PyBuffer_Release(&rows);
        return PyErr_Format(PyExc_ValueError,
                            "gf2_rank: buffer holds %zd bytes, expected %zd",
                            rows.len, n_rows * n_limbs * LIMB_BYTES);
    }
    /* Xor basis keyed by top bit (same algorithm as the words backend,
     * so the two agree on any input): basis slot p holds a row whose
     * highest set bit is p. */
    Py_ssize_t n_slots = n_limbs * LIMB_BITS;
    uint64_t *basis = PyMem_Calloc((size_t)(n_slots * n_limbs), LIMB_BYTES);
    unsigned char *occupied = PyMem_Calloc((size_t)n_slots, 1);
    uint64_t *work = PyMem_Malloc((size_t)n_limbs * LIMB_BYTES);
    if (basis == NULL || occupied == NULL || work == NULL) {
        PyMem_Free(basis);
        PyMem_Free(occupied);
        PyMem_Free(work);
        PyBuffer_Release(&rows);
        return PyErr_NoMemory();
    }
    const unsigned char *buf = rows.buf;
    long rank = 0;
    for (Py_ssize_t r = 0; r < n_rows; r++) {
        const unsigned char *row = buf + r * n_limbs * LIMB_BYTES;
        for (Py_ssize_t w = 0; w < n_limbs; w++)
            work[w] = read_limb(row, n_limbs * LIMB_BYTES, w);
        for (;;) {
            Py_ssize_t top = -1;
            for (Py_ssize_t w = n_limbs - 1; w >= 0; w--) {
                if (work[w]) {
                    top = w * LIMB_BITS + (LIMB_BITS - 1 - CLZ64(work[w]));
                    break;
                }
            }
            if (top < 0)
                break;  /* row vanished: dependent */
            uint64_t *slot = basis + top * n_limbs;
            if (!occupied[top]) {
                memcpy(slot, work, (size_t)n_limbs * LIMB_BYTES);
                occupied[top] = 1;
                rank++;
                break;
            }
            for (Py_ssize_t w = 0; w < n_limbs; w++)
                work[w] ^= slot[w];
        }
    }
    PyMem_Free(basis);
    PyMem_Free(occupied);
    PyMem_Free(work);
    PyBuffer_Release(&rows);
    return PyLong_FromLong(rank);
}

/* ------------------------------------------------------------------ */
/* cells_of_rect                                                       */
/* ------------------------------------------------------------------ */

static PyObject *
kernels_cells_of_rect(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer rows_buf, cols_buf;
    Py_ssize_t n_cols;
    if (!PyArg_ParseTuple(args, "y*y*n:cells_of_rect", &rows_buf, &cols_buf, &n_cols))
        return NULL;
    if (n_cols <= 0) {
        PyBuffer_Release(&rows_buf);
        PyBuffer_Release(&cols_buf);
        return PyErr_Format(PyExc_ValueError, "cells_of_rect: n_cols must be positive");
    }
    const unsigned char *rows = rows_buf.buf;
    Py_ssize_t rows_limbs = limb_count(rows_buf.len);
    /* Highest set row decides the output width. */
    long long top_row = -1;
    for (Py_ssize_t w = rows_limbs - 1; w >= 0; w--) {
        uint64_t limb = read_limb(rows, rows_buf.len, w);
        if (limb) {
            top_row = (long long)w * LIMB_BITS + (LIMB_BITS - 1 - CLZ64(limb));
            break;
        }
    }
    if (top_row < 0) {
        PyBuffer_Release(&rows_buf);
        PyBuffer_Release(&cols_buf);
        return PyLong_FromLong(0);
    }
    Py_ssize_t out_bits = (Py_ssize_t)(top_row + 1) * n_cols;
    Py_ssize_t out_limbs = (out_bits + LIMB_BITS - 1) / LIMB_BITS;
    uint64_t *out = PyMem_Calloc((size_t)out_limbs, LIMB_BYTES);
    Py_ssize_t col_limbs = limb_count(cols_buf.len);
    uint64_t *cols = PyMem_Malloc((size_t)(col_limbs + 1) * LIMB_BYTES);
    if (out == NULL || cols == NULL) {
        PyMem_Free(out);
        PyMem_Free(cols);
        PyBuffer_Release(&rows_buf);
        PyBuffer_Release(&cols_buf);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t w = 0; w < col_limbs; w++)
        cols[w] = read_limb(cols_buf.buf, cols_buf.len, w);
    cols[col_limbs] = 0;  /* shift slop */
    /* Only limbs that can intersect the n_cols-bit pattern matter. */
    Py_ssize_t pattern_limbs = (n_cols + LIMB_BITS - 1) / LIMB_BITS;
    if (pattern_limbs > col_limbs)
        pattern_limbs = col_limbs;
    for (Py_ssize_t w = 0; w < rows_limbs; w++) {
        uint64_t limb = read_limb(rows, rows_buf.len, w);
        long long base = (long long)w * LIMB_BITS;
        while (limb) {
            long long i = base + CTZ64(limb);
            limb &= limb - 1;
            long long offset = i * n_cols;
            Py_ssize_t word = (Py_ssize_t)(offset / LIMB_BITS);
            int shift = (int)(offset % LIMB_BITS);
            if (shift == 0) {
                for (Py_ssize_t k = 0; k < pattern_limbs; k++)
                    out[word + k] |= cols[k];
            } else {
                for (Py_ssize_t k = 0; k < pattern_limbs; k++) {
                    out[word + k] |= cols[k] << shift;
                    if (word + k + 1 < out_limbs)
                        out[word + k + 1] |= cols[k] >> (LIMB_BITS - shift);
                }
            }
        }
    }
    PyObject *result = int_from_u64(out, out_limbs);
    PyMem_Free(out);
    PyMem_Free(cols);
    PyBuffer_Release(&rows_buf);
    PyBuffer_Release(&cols_buf);
    return result;
}

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef kernels_methods[] = {
    {"popcount", kernels_popcount, METH_O,
     "popcount(buf) -> int: set bits of a little-endian limb buffer."},
    {"popcount_rows", kernels_popcount_rows, METH_O,
     "popcount_rows(masks) -> int: total bit_count over a sequence of ints."},
    {"bit_indices", kernels_bit_indices, METH_O,
     "bit_indices(buf) -> list[int]: ascending set-bit positions."},
    {"transpose", kernels_transpose, METH_VARARGS,
     "transpose(rows_buf, n_rows, n_cols) -> bytes: column limb buffers."},
    {"fold_rows", kernels_fold_rows, METH_VARARGS,
     "fold_rows(table, mask_buf) -> int: OR of table[i] over set bits i."},
    {"gf2_rank", kernels_gf2_rank, METH_VARARGS,
     "gf2_rank(rows_buf, n_rows, n_limbs) -> int: GF(2) rank by xor basis."},
    {"cells_of_rect", kernels_cells_of_rect, METH_VARARGS,
     "cells_of_rect(rows_buf, cols_buf, n_cols) -> int: row-major cell mask."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._cext.kernels",
    .m_doc = "Fixed-width u64-limb kernels for the cext backend tier.",
    .m_size = -1,
    .m_methods = kernels_methods,
};

PyMODINIT_FUNC
PyInit_kernels(void)
{
    state_str_bit_count = PyUnicode_InternFromString("bit_count");
    if (state_str_bit_count == NULL)
        return NULL;
    if (PyType_Ready(&StepTableType) < 0)
        return NULL;
    PyObject *module = PyModule_Create(&kernels_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddIntConstant(module, "ABI_VERSION", ABI_VERSION) < 0 ||
        PyModule_AddIntConstant(module, "LIMB_BYTES", LIMB_BYTES) < 0 ||
        PyModule_AddObjectRef(module, "StepTable", (PyObject *)&StepTableType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}

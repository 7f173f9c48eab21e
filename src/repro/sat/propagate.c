/*
 * The CDCL search of repro.sat.solver.Solver, in C.
 *
 * Five functions, each bound on Solver as a method:
 *
 *   propagate(solver)              -> Solver._propagate
 *   analyze(solver, conflict)      -> Solver._analyze
 *   bump_clause(solver, ref)       -> Solver._bump_clause
 *   cancel_until(solver, level)    -> Solver.cancel_until
 *   pick_branch_var(solver)        -> Solver._pick_branch_var
 *
 * They read and write the solver's own lists, dicts and floats in place,
 * and make the moves of ReferenceSolver (reference.py) on the solver's
 * flat encoding, so every decision, learnt clause and resolution chain
 * is the reference search's.  Two rules keep it so:
 *
 * - The branching heap stays a heapq list of (-activity, var) tuples
 *   (Solver.new_var and _compact_heap use heapq on it).  heap_push and
 *   heap_pop sift as CPython's _heapq does, and entry_lt compares as
 *   Python compares the tuples: the floats first (-0.0 == 0.0), the
 *   vars on a tie.
 * - Every float is changed by one IEEE double operation per Python
 *   operation, built with -ffp-contract=off so that no multiply and add
 *   are fused into one rounding.
 *
 * Every index is bounds-checked and every item type-checked (lists,
 * dicts, exact ints, floats, bools and (float, int) heap entries), so a
 * corrupt solver state raises IndexError, TypeError, ValueError or
 * KeyError instead of crashing the process.  Inside the loops an item is
 * released from a list slot only after its type is checked, so no Python
 * code runs there (a popped heap entry that fails its check is released
 * on the way out, with the error); items used across other calls are
 * held as strong references, since a corrupt state may alias one list to
 * another.
 *
 * The module is built on first import by repro.sat.native; it uses only
 * API present in CPython 3.9 (METH_O, METH_FASTCALL, the list, dict and
 * tuple API, PyInstanceMethod).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

static PyObject *str_trail, *str_watches, *str_lit_val, *str_arena;
static PyObject *str_level, *str_reason, *str_trail_lim, *str_stats;
static PyObject *str_qhead, *str_propagations, *str_seen, *str_activity;
static PyObject *str_heap, *str_heap_live, *str_phase, *str_num_vars;
static PyObject *str_var_inc, *str_cla_inc, *str_var_decay;
static PyObject *str_clause_decay, *str_cla_act, *str_learnts;
static PyObject *str_proof_ids, *str_proof, *str_minimized;
static PyObject *str_compact_heap;
static PyObject *int_zero, *int_one, *int_minus_one;

#define NO_REASON (-1)  /* solver._NO_REASON */

/* ------------------------------------------------------------------ */
/* Checked access to the solver's lists                                */
/* ------------------------------------------------------------------ */

static inline int
check_index(PyObject *list, Py_ssize_t index, const char *name)
{
    if (index < 0 || index >= PyList_GET_SIZE(list)) {
        PyErr_Format(PyExc_IndexError,
                     "%s index %zd out of range (length %zd)",
                     name, index, PyList_GET_SIZE(list));
        return -1;
    }
    return 0;
}

static int
type_error(const char *name, Py_ssize_t index, PyObject *item,
           const char *want)
{
    PyErr_Format(PyExc_TypeError, "%s[%zd] is %.100s, not %s",
                 name, index, Py_TYPE(item)->tp_name, want);
    return -1;
}

/* *out = list[index]; an exact int inside the list's bounds. */
static inline int
get_int(PyObject *list, Py_ssize_t index, Py_ssize_t *out, const char *name)
{
    PyObject *item;

    if (check_index(list, index, name) < 0)
        return -1;
    item = PyList_GET_ITEM(list, index);
    if (!PyLong_CheckExact(item))
        return type_error(name, index, item, "int");
    *out = PyLong_AsSsize_t(item);
    if (*out == -1 && PyErr_Occurred()) {
        PyErr_Format(PyExc_ValueError,
                     "%s[%zd] does not fit a machine word", name, index);
        return -1;
    }
    return 0;
}

/* *out = list[index]; a float inside the list's bounds. */
static inline int
get_float(PyObject *list, Py_ssize_t index, double *out, const char *name)
{
    PyObject *item;

    if (check_index(list, index, name) < 0)
        return -1;
    item = PyList_GET_ITEM(list, index);
    if (!PyFloat_CheckExact(item))
        return type_error(name, index, item, "float");
    *out = PyFloat_AS_DOUBLE(item);
    return 0;
}

/* *out = list[index]; a bool inside the list's bounds. */
static inline int
get_bool(PyObject *list, Py_ssize_t index, int *out, const char *name)
{
    PyObject *item;

    if (check_index(list, index, name) < 0)
        return -1;
    item = PyList_GET_ITEM(list, index);
    if (item != Py_True && item != Py_False)
        return type_error(name, index, item, "bool");
    *out = item == Py_True;
    return 0;
}

/* *out = watches[index] (borrowed); a list inside the bounds. */
static inline int
get_list(PyObject *list, Py_ssize_t index, PyObject **out)
{
    PyObject *item;

    if (check_index(list, index, "_watches") < 0)
        return -1;
    item = PyList_GET_ITEM(list, index);
    if (!PyList_CheckExact(item))
        return type_error("_watches", index, item, "list");
    *out = item;
    return 0;
}

/* list[index] = value, over a slot that holds an item of exactly
   *type* (int, float or bool: releasing one runs no Python code). */
static inline int
replace(PyObject *list, Py_ssize_t index, PyObject *value,
        PyTypeObject *type, const char *name)
{
    PyObject *old;

    if (check_index(list, index, name) < 0)
        return -1;
    old = PyList_GET_ITEM(list, index);
    if (Py_TYPE(old) != type)
        return type_error(name, index, old, type->tp_name);
    Py_INCREF(value);
    PyList_SET_ITEM(list, index, value);
    Py_DECREF(old);
    return 0;
}

#define set_item(list, index, value, name) \
    replace(list, index, value, &PyLong_Type, name)
#define set_bool(list, index, flag, name) \
    replace(list, index, (flag) ? Py_True : Py_False, &PyBool_Type, name)

static inline int
set_float(PyObject *list, Py_ssize_t index, double value, const char *name)
{
    PyObject *item = PyFloat_FromDouble(value);
    int status;

    if (item == NULL)
        return -1;
    status = replace(list, index, item, &PyFloat_Type, name);
    Py_DECREF(item);
    return status;
}

/* Exchange two slots that were both just read. */
static inline void
swap_items(PyObject *list, Py_ssize_t a, Py_ssize_t b)
{
    PyObject *tmp = PyList_GET_ITEM(list, a);

    PyList_SET_ITEM(list, a, PyList_GET_ITEM(list, b));
    PyList_SET_ITEM(list, b, tmp);
}

/* Hold a new reference to list[index] in *slot, releasing the old one. */
static inline void
hold(PyObject **slot, PyObject *list, Py_ssize_t index)
{
    PyObject *old = *slot;

    *slot = PyList_GET_ITEM(list, index);
    Py_INCREF(*slot);
    Py_XDECREF(old);
}

/* ------------------------------------------------------------------ */
/* Checked access to the solver's attributes                           */
/* ------------------------------------------------------------------ */

/* New reference to getattr(obj, name), which must be exactly *type*. */
static PyObject *
typed_attr(PyObject *obj, PyObject *name, PyTypeObject *type)
{
    PyObject *value = PyObject_GetAttr(obj, name);

    if (value != NULL && Py_TYPE(value) != type) {
        PyErr_Format(PyExc_TypeError, "Solver.%U is %.100s, not %s",
                     name, Py_TYPE(value)->tp_name, type->tp_name);
        Py_CLEAR(value);
    }
    return value;
}

#define list_attr(obj, name) typed_attr(obj, name, &PyList_Type)
#define dict_attr(obj, name) typed_attr(obj, name, &PyDict_Type)

static int
int_attr(PyObject *obj, PyObject *name, Py_ssize_t *out)
{
    PyObject *value = typed_attr(obj, name, &PyLong_Type);

    if (value == NULL)
        return -1;
    *out = PyLong_AsSsize_t(value);
    Py_DECREF(value);
    if (*out == -1 && PyErr_Occurred()) {
        PyErr_Format(PyExc_ValueError,
                     "Solver.%U does not fit a machine word", name);
        return -1;
    }
    return 0;
}

static int
float_attr(PyObject *obj, PyObject *name, double *out)
{
    PyObject *value = typed_attr(obj, name, &PyFloat_Type);

    if (value == NULL)
        return -1;
    *out = PyFloat_AS_DOUBLE(value);
    Py_DECREF(value);
    return 0;
}

static int
set_int_attr(PyObject *obj, PyObject *name, Py_ssize_t value)
{
    PyObject *item = PyLong_FromSsize_t(value);
    int status;

    if (item == NULL)
        return -1;
    status = PyObject_SetAttr(obj, name, item);
    Py_DECREF(item);
    return status;
}

static int
set_float_attr(PyObject *obj, PyObject *name, double value)
{
    PyObject *item = PyFloat_FromDouble(value);
    int status;

    if (item == NULL)
        return -1;
    status = PyObject_SetAttr(obj, name, item);
    Py_DECREF(item);
    return status;
}

/* obj.name += delta, with Python's own addition. */
static int
add_to_attr(PyObject *obj, PyObject *name, Py_ssize_t delta)
{
    PyObject *old, *step, *sum;
    int status;

    if ((old = PyObject_GetAttr(obj, name)) == NULL)
        return -1;
    step = PyLong_FromSsize_t(delta);
    if (step == NULL) {
        Py_DECREF(old);
        return -1;
    }
    sum = PyNumber_InPlaceAdd(old, step);
    Py_DECREF(old);
    Py_DECREF(step);
    if (sum == NULL)
        return -1;
    status = PyObject_SetAttr(obj, name, sum);
    Py_DECREF(sum);
    return status;
}

/* *out = inc / obj.name, as Python divides a float by a float or int. */
static int
divide_by_attr(PyObject *obj, PyObject *name, double inc, double *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    double divisor;

    if (value == NULL)
        return -1;
    if (PyFloat_CheckExact(value))
        divisor = PyFloat_AS_DOUBLE(value);
    else if (PyLong_CheckExact(value))
        divisor = PyLong_AsDouble(value);
    else {
        PyErr_Format(PyExc_TypeError, "Solver.%U is %.100s, not float",
                     name, Py_TYPE(value)->tp_name);
        Py_DECREF(value);
        return -1;
    }
    Py_DECREF(value);
    if (divisor == -1.0 && PyErr_Occurred())
        return -1;
    if (divisor == 0.0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        return -1;
    }
    *out = inc / divisor;
    return 0;
}

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                     name, want, nargs);
        return -1;
    }
    return 0;
}

/* *out = the exact int argument *arg*. */
static int
int_arg(const char *name, PyObject *arg, Py_ssize_t *out)
{
    if (!PyLong_CheckExact(arg)) {
        PyErr_Format(PyExc_TypeError, "%s: argument is %.100s, not int",
                     name, Py_TYPE(arg)->tp_name);
        return -1;
    }
    *out = PyLong_AsSsize_t(arg);
    if (*out == -1 && PyErr_Occurred()) {
        PyErr_Format(PyExc_ValueError,
                     "%s: argument does not fit a machine word", name);
        return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* The branching heap (heapq's order)                                  */
/* ------------------------------------------------------------------ */

/* *key, *var = entry, an exact (float, int) pair. */
static inline int
heap_entry(PyObject *entry, double *key, Py_ssize_t *var)
{
    PyObject *first, *second;

    if (!PyTuple_CheckExact(entry) || PyTuple_GET_SIZE(entry) != 2) {
        PyErr_Format(PyExc_TypeError, "_heap entry is %.100s, not a "
                     "(float, int) pair", Py_TYPE(entry)->tp_name);
        return -1;
    }
    first = PyTuple_GET_ITEM(entry, 0);
    second = PyTuple_GET_ITEM(entry, 1);
    if (!PyFloat_CheckExact(first) || !PyLong_CheckExact(second)) {
        PyErr_Format(PyExc_TypeError, "_heap entry is (%.100s, %.100s), "
                     "not (float, int)", Py_TYPE(first)->tp_name,
                     Py_TYPE(second)->tp_name);
        return -1;
    }
    *key = PyFloat_AS_DOUBLE(first);
    *var = PyLong_AsSsize_t(second);
    if (*var == -1 && PyErr_Occurred()) {
        PyErr_SetString(PyExc_ValueError,
                        "_heap entry var does not fit a machine word");
        return -1;
    }
    return 0;
}

/* a < b as Python compares two (float, int) tuples: the first items
   that are not equal (identical objects are) decide. */
static inline int
entry_lt(PyObject *a, PyObject *b)
{
    double key_a, key_b;
    Py_ssize_t var_a, var_b;

    if (heap_entry(a, &key_a, &var_a) < 0
            || heap_entry(b, &key_b, &var_b) < 0)
        return -1;
    if (key_a == key_b || PyTuple_GET_ITEM(a, 0) == PyTuple_GET_ITEM(b, 0))
        return var_a < var_b;
    return key_a < key_b;
}

/* heapq._siftdown(heap, start, pos): move heap[pos] up towards start. */
static int
sift_down(PyObject *heap, Py_ssize_t start, Py_ssize_t pos)
{
    Py_ssize_t parent;
    int less;

    while (pos > start) {
        parent = (pos - 1) >> 1;
        less = entry_lt(PyList_GET_ITEM(heap, pos),
                        PyList_GET_ITEM(heap, parent));
        if (less < 0)
            return -1;
        if (!less)
            break;
        swap_items(heap, pos, parent);
        pos = parent;
    }
    return 0;
}

/* heapq._siftup(heap, pos): move the smaller child up to a leaf, then
   sift the item there back down.  Ties take the right child. */
static int
sift_up(PyObject *heap, Py_ssize_t pos)
{
    Py_ssize_t end = PyList_GET_SIZE(heap), start = pos, limit = end >> 1;
    Py_ssize_t child;
    int less;

    while (pos < limit) {
        child = 2 * pos + 1;
        if (child + 1 < end) {
            less = entry_lt(PyList_GET_ITEM(heap, child),
                            PyList_GET_ITEM(heap, child + 1));
            if (less < 0)
                return -1;
            child += less ^ 1;
        }
        swap_items(heap, child, pos);
        pos = child;
    }
    return sift_down(heap, start, pos);
}

/* heapq.heappush(heap, (key, var)) */
static int
heap_push(PyObject *heap, double key, Py_ssize_t var)
{
    PyObject *key_obj, *var_obj, *entry;
    int status;

    key_obj = PyFloat_FromDouble(key);
    var_obj = PyLong_FromSsize_t(var);
    entry = (key_obj && var_obj) ? PyTuple_Pack(2, key_obj, var_obj) : NULL;
    Py_XDECREF(key_obj);
    Py_XDECREF(var_obj);
    if (entry == NULL)
        return -1;
    status = PyList_Append(heap, entry);
    Py_DECREF(entry);
    if (status < 0)
        return -1;
    return sift_down(heap, 0, PyList_GET_SIZE(heap) - 1);
}

/* heapq.heappop(heap) on a non-empty heap: a new reference. */
static PyObject *
heap_pop(PyObject *heap)
{
    Py_ssize_t n = PyList_GET_SIZE(heap);
    PyObject *last = PyList_GET_ITEM(heap, n - 1), *top;

    Py_INCREF(last);
    if (PyList_SetSlice(heap, n - 1, n, NULL) < 0) {
        Py_DECREF(last);
        return NULL;
    }
    if (n == 1)
        return last;
    top = PyList_GET_ITEM(heap, 0);
    PyList_SET_ITEM(heap, 0, last);
    if (sift_up(heap, 0) < 0) {
        Py_DECREF(top);
        return NULL;
    }
    return top;
}

/* ------------------------------------------------------------------ */
/* propagate                                                           */
/* ------------------------------------------------------------------ */

/* ws[j] = ref; ws[j + 1] = blocker; j += 2 (keep an entry at the
   write cursor). */
static inline int
keep(PyObject *ws, Py_ssize_t *j, PyObject *ref, PyObject *blocker)
{
    if (set_item(ws, *j, ref, "watch list") < 0
            || set_item(ws, *j + 1, blocker, "watch list") < 0)
        return -1;
    *j += 2;
    return 0;
}

/* stats.propagations += delta; self._qhead = qhead */
static int
store_progress(PyObject *solver, PyObject *stats, Py_ssize_t delta,
               Py_ssize_t qhead)
{
    if (add_to_attr(stats, str_propagations, delta) < 0)
        return -1;
    return set_int_attr(solver, str_qhead, qhead);
}

/*
 * Per watch pair the blocker is checked first (one _lit_val read); only
 * a stale or non-true blocker touches the clause body in the arena.
 * Compaction is two-phase: while no watch has moved away, kept entries
 * stay where they are (no list writes on the common all-kept pass); the
 * first relocation switches to a write cursor j that slides the
 * survivors down in place.  The fast path fires only when the blocker is
 * still one of the two watched literals and makes the slot0/slot1 swap
 * the full path would make, so the arena, and with it every later move,
 * is the reference solver's (whose watch lists hold clauses, not pairs).
 */
static PyObject *
propagate(PyObject *module, PyObject *solver)
{
    PyObject *trail = NULL, *watches = NULL, *lit_val = NULL;
    PyObject *arena = NULL, *level = NULL, *reason = NULL;
    PyObject *stats = NULL, *dlevel = NULL, *false_obj = NULL;
    PyObject *ws = NULL, *ref_obj = NULL, *first_obj = NULL;
    PyObject *attr, *other, *cand_obj, *result = NULL;
    Py_ssize_t qhead, qstart, ilit, false_lit, n, i, j;
    Py_ssize_t ref, blocker, val, first, second, val0, header, pos, cand;
    int relocated;

    (void)module;
    if ((trail = list_attr(solver, str_trail)) == NULL
            || (watches = list_attr(solver, str_watches)) == NULL
            || (lit_val = list_attr(solver, str_lit_val)) == NULL
            || (arena = list_attr(solver, str_arena)) == NULL
            || (level = list_attr(solver, str_level)) == NULL
            || (reason = list_attr(solver, str_reason)) == NULL)
        goto done;
    /* dlevel = len(self._trail_lim) */
    if ((attr = PyObject_GetAttr(solver, str_trail_lim)) == NULL)
        goto done;
    n = PyObject_Size(attr);
    Py_DECREF(attr);
    if (n < 0 || (dlevel = PyLong_FromSsize_t(n)) == NULL)
        goto done;
    if ((stats = PyObject_GetAttr(solver, str_stats)) == NULL)
        goto done;
    if (int_attr(solver, str_qhead, &qhead) < 0)
        goto done;
    qstart = qhead;

    while (qhead < PyList_GET_SIZE(trail)) {
        if (get_int(trail, qhead, &ilit, "_trail") < 0)
            goto done;
        qhead += 1;
        false_lit = ilit ^ 1;
        Py_CLEAR(false_obj);
        if (get_list(watches, false_lit, &attr) < 0)
            goto done;
        Py_INCREF(attr);
        Py_XSETREF(ws, attr);
        n = PyList_GET_SIZE(ws);
        if (n == 0)
            continue;
        if (n & 1) {
            PyErr_Format(PyExc_ValueError, "_watches[%zd] has odd length "
                         "%zd", false_lit, n);
            goto done;
        }
        j = -1;  /* write cursor; -1 while no entry has been dropped */
        for (i = 0; i < n; i += 2) {
            if (get_int(ws, i, &ref, "watch list") < 0
                    || get_int(ws, i + 1, &blocker, "watch list") < 0)
                goto done;
            hold(&ref_obj, ws, i);
            /* Keeps ref + 3 and the clause end below overflow-free. */
            if (ref < 0 || ref >= PyList_GET_SIZE(arena)) {
                PyErr_Format(PyExc_IndexError, "clause ref %zd outside "
                             "_arena (length %zd)", ref,
                             PyList_GET_SIZE(arena));
                goto done;
            }
            if (get_int(lit_val, blocker, &val, "_lit_val") < 0)
                goto done;
            if (val == 1) {
                if (get_int(arena, ref + 1, &first, "_arena") < 0)
                    goto done;
                if (first == blocker) {
                    if (j >= 0 && keep(ws, &j, ref_obj,
                                       PyList_GET_ITEM(ws, i + 1)) < 0)
                        goto done;
                    continue;
                }
                if (get_int(arena, ref + 2, &second, "_arena") < 0)
                    goto done;
                if (second == blocker) {
                    /* The false literal in slot 0 swaps with slot 1
                       before the satisfied check, as on the full path. */
                    swap_items(arena, ref + 1, ref + 2);
                    if (j >= 0 && keep(ws, &j, ref_obj,
                                       PyList_GET_ITEM(ws, i + 1)) < 0)
                        goto done;
                    continue;
                }
                /* Stale blocker: fall through to the full path. */
            }
            else if (get_int(arena, ref + 1, &first, "_arena") < 0)
                goto done;
            if (first == false_lit) {
                if (get_int(arena, ref + 2, &first, "_arena") < 0)
                    goto done;
                swap_items(arena, ref + 1, ref + 2);
            }
            hold(&first_obj, arena, ref + 1);
            if (get_int(lit_val, first, &val0, "_lit_val") < 0)
                goto done;
            if (val0 == 1) {
                if (j >= 0) {
                    if (keep(ws, &j, ref_obj, first_obj) < 0)
                        goto done;
                }
                /* refresh blocker in place */
                else if (set_item(ws, i + 1, first_obj, "watch list") < 0)
                    goto done;
                continue;
            }
            if (get_int(arena, ref, &header, "_arena") < 0)
                goto done;
            relocated = 0;
            for (pos = ref + 3; pos < ref + 1 + (header >> 1); pos++) {
                if (get_int(arena, pos, &cand, "_arena") < 0
                        || get_int(lit_val, cand, &val, "_lit_val") < 0)
                    goto done;
                if (val != -1) {
                    /* arena[ref + 2] = cand; arena[pos] = false_lit;
                       watches[cand] += [ref, first] */
                    cand_obj = PyList_GET_ITEM(arena, pos);
                    if (false_obj == NULL
                            && (false_obj = PyLong_FromSsize_t(false_lit))
                            == NULL)
                        goto done;
                    if (set_item(arena, ref + 2, cand_obj, "_arena") < 0
                            || set_item(arena, pos, false_obj, "_arena") < 0
                            || get_list(watches, cand, &other) < 0
                            || PyList_Append(other, ref_obj) < 0
                            || PyList_Append(other, first_obj) < 0)
                        goto done;
                    if (j < 0)
                        j = i;  /* first relocation: compact from here */
                    relocated = 1;
                    break;
                }
            }
            if (relocated)
                continue;
            if (j >= 0) {
                if (keep(ws, &j, ref_obj, first_obj) < 0)
                    goto done;
            }
            else if (set_item(ws, i + 1, first_obj, "watch list") < 0)
                goto done;
            if (val0 == -1) {
                /* Conflict: ws[j:] = ws[i + 2:] keeps the unvisited. */
                if (j >= 0) {
                    PyObject *rest = PyList_GetSlice(
                        ws, i + 2, PyList_GET_SIZE(ws));
                    int status;

                    if (rest == NULL)
                        goto done;
                    status = PyList_SetSlice(
                        ws, j, PyList_GET_SIZE(ws), rest);
                    Py_DECREF(rest);
                    if (status < 0)
                        goto done;
                }
                if (store_progress(solver, stats, qhead - qstart,
                                   PyList_GET_SIZE(trail)) < 0)
                    goto done;
                result = PyLong_FromSsize_t(ref);
                goto done;
            }
            /* Assign first: lit_val, level and reason, then the trail. */
            if (set_item(lit_val, first, int_one, "_lit_val") < 0
                    || set_item(lit_val, first ^ 1, int_minus_one,
                                "_lit_val") < 0
                    || set_item(level, first >> 1, dlevel, "_level") < 0
                    || set_item(reason, first >> 1, ref_obj, "_reason") < 0
                    || PyList_Append(trail, first_obj) < 0)
                goto done;
        }
        /* del ws[j:] */
        if (j >= 0 && PyList_SetSlice(ws, j, PyList_GET_SIZE(ws), NULL) < 0)
            goto done;
    }
    if (store_progress(solver, stats, qhead - qstart, qhead) < 0)
        goto done;
    Py_INCREF(Py_None);
    result = Py_None;

done:
    Py_XDECREF(first_obj);
    Py_XDECREF(ref_obj);
    Py_XDECREF(ws);
    Py_XDECREF(false_obj);
    Py_XDECREF(dlevel);
    Py_XDECREF(stats);
    Py_XDECREF(reason);
    Py_XDECREF(level);
    Py_XDECREF(arena);
    Py_XDECREF(lit_val);
    Py_XDECREF(watches);
    Py_XDECREF(trail);
    return result;
}

/* ------------------------------------------------------------------ */
/* cancel_until                                                        */
/* ------------------------------------------------------------------ */

/*
 * Unassigns the trail above the level's bound, saving each phase and
 * pushing a heap entry for each variable that lacks a current one.
 * Per-variable updates commute and heap pops follow the strict
 * (-activity, var) order, so walking the trail forwards (the reference
 * walks it backwards) and skipping the reference's duplicate pushes
 * moves no decision.
 */
static PyObject *
cancel_until(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *solver, *trail_lim = NULL, *trail = NULL, *lit_val = NULL;
    PyObject *phase = NULL, *reason = NULL, *activity = NULL;
    PyObject *heap = NULL, *live = NULL, *done_obj, *result = NULL;
    Py_ssize_t level, bound, k, ilit, var, num_vars;
    double act;
    int is_live;

    (void)module;
    if (check_nargs("cancel_until", nargs, 2) < 0
            || int_arg("cancel_until", args[1], &level) < 0)
        return NULL;
    if (level < 0) {
        PyErr_Format(PyExc_ValueError, "cancel_until: level %zd < 0",
                     level);
        return NULL;
    }
    solver = args[0];
    if ((trail_lim = list_attr(solver, str_trail_lim)) == NULL)
        goto done;
    if (PyList_GET_SIZE(trail_lim) <= level) {
        Py_INCREF(Py_None);
        result = Py_None;
        goto done;
    }
    if (get_int(trail_lim, level, &bound, "_trail_lim") < 0
            || (trail = list_attr(solver, str_trail)) == NULL
            || (lit_val = list_attr(solver, str_lit_val)) == NULL
            || (phase = list_attr(solver, str_phase)) == NULL
            || (reason = list_attr(solver, str_reason)) == NULL
            || (activity = list_attr(solver, str_activity)) == NULL
            || (heap = list_attr(solver, str_heap)) == NULL
            || (live = list_attr(solver, str_heap_live)) == NULL)
        goto done;
    if (bound < 0 || bound > PyList_GET_SIZE(trail)) {
        PyErr_Format(PyExc_IndexError, "_trail_lim[%zd] = %zd outside "
                     "_trail (length %zd)", level, bound,
                     PyList_GET_SIZE(trail));
        goto done;
    }
    for (k = bound; k < PyList_GET_SIZE(trail); k++) {
        if (get_int(trail, k, &ilit, "_trail") < 0)
            goto done;
        var = ilit >> 1;
        if (set_bool(phase, var, !(ilit & 1), "_phase") < 0
                || set_item(lit_val, ilit, int_zero, "_lit_val") < 0
                || set_item(lit_val, ilit ^ 1, int_zero, "_lit_val") < 0
                || set_item(reason, var, int_minus_one, "_reason") < 0
                || get_bool(live, var, &is_live, "_heap_live") < 0)
            goto done;
        if (!is_live) {
            if (set_bool(live, var, 1, "_heap_live") < 0
                    || get_float(activity, var, &act, "_activity") < 0
                    || heap_push(heap, -act, var) < 0)
                goto done;
        }
    }
    if (PyList_SetSlice(trail, bound, PyList_GET_SIZE(trail), NULL) < 0
            || PyList_SetSlice(trail_lim, level, PyList_GET_SIZE(trail_lim),
                               NULL) < 0
            || set_int_attr(solver, str_qhead, PyList_GET_SIZE(trail)) < 0
            || int_attr(solver, str_num_vars, &num_vars) < 0)
        goto done;
    if (PyList_GET_SIZE(heap) > 2 * num_vars) {
        done_obj = PyObject_CallMethodObjArgs(solver, str_compact_heap, NULL);
        if (done_obj == NULL)
            goto done;
        Py_DECREF(done_obj);
    }
    Py_INCREF(Py_None);
    result = Py_None;

done:
    Py_XDECREF(live);
    Py_XDECREF(heap);
    Py_XDECREF(activity);
    Py_XDECREF(reason);
    Py_XDECREF(phase);
    Py_XDECREF(lit_val);
    Py_XDECREF(trail);
    Py_XDECREF(trail_lim);
    return result;
}

/* ------------------------------------------------------------------ */
/* pick_branch_var                                                     */
/* ------------------------------------------------------------------ */

/*
 * Pops until a current entry (its key is minus the variable's activity)
 * of an unassigned variable; each current entry popped clears the
 * variable's live flag.  An empty heap falls back to the first
 * unassigned variable, and None means every variable is assigned.
 */
static PyObject *
pick_branch_var(PyObject *module, PyObject *solver)
{
    PyObject *heap = NULL, *activity = NULL, *lit_val = NULL;
    PyObject *live = NULL, *entry = NULL, *result = NULL;
    Py_ssize_t var, val, num_vars;
    double key, act;

    (void)module;
    if ((heap = list_attr(solver, str_heap)) == NULL
            || (activity = list_attr(solver, str_activity)) == NULL
            || (lit_val = list_attr(solver, str_lit_val)) == NULL
            || (live = list_attr(solver, str_heap_live)) == NULL)
        goto done;
    while (PyList_GET_SIZE(heap) > 0) {
        Py_XSETREF(entry, heap_pop(heap));
        if (entry == NULL || heap_entry(entry, &key, &var) < 0
                || get_float(activity, var, &act, "_activity") < 0)
            goto done;
        if (-key == act) {
            if (set_bool(live, var, 0, "_heap_live") < 0
                    || get_int(lit_val, var << 1, &val, "_lit_val") < 0)
                goto done;
            if (val == 0) {
                result = PyTuple_GET_ITEM(entry, 1);
                Py_INCREF(result);
                goto done;
            }
        }
    }
    if (int_attr(solver, str_num_vars, &num_vars) < 0)
        goto done;
    for (var = 1; var <= num_vars; var++) {
        if (get_int(lit_val, var << 1, &val, "_lit_val") < 0)
            goto done;
        if (val == 0) {
            result = PyLong_FromSsize_t(var);
            goto done;
        }
    }
    Py_INCREF(Py_None);
    result = Py_None;

done:
    Py_XDECREF(entry);
    Py_XDECREF(live);
    Py_XDECREF(lit_val);
    Py_XDECREF(activity);
    Py_XDECREF(heap);
    return result;
}

/* ------------------------------------------------------------------ */
/* Activities                                                          */
/* ------------------------------------------------------------------ */

/* cla_act[ref] = cla_act.get(ref, 0.0) + *cla_inc; past 1e20 every
   learnt clause's activity and *cla_inc are scaled by 1e-20. */
static int
bump_clause_at(PyObject *cla_act, PyObject *learnts, PyObject *ref,
               double *cla_inc)
{
    PyObject *item, *value;
    Py_ssize_t k;
    double act = 0.0;
    int status;

    item = PyDict_GetItemWithError(cla_act, ref);
    if (item == NULL && PyErr_Occurred())
        return -1;
    if (item != NULL) {
        if (!PyFloat_CheckExact(item)) {
            PyErr_Format(PyExc_TypeError, "_cla_act[%R] is %.100s, not "
                         "float", ref, Py_TYPE(item)->tp_name);
            return -1;
        }
        act = PyFloat_AS_DOUBLE(item);
    }
    act += *cla_inc;
    if ((value = PyFloat_FromDouble(act)) == NULL)
        return -1;
    status = PyDict_SetItem(cla_act, ref, value);
    Py_DECREF(value);
    if (status < 0 || act <= 1e20)
        return status;
    for (k = 0; k < PyList_GET_SIZE(learnts); k++) {
        PyObject *lref = PyList_GET_ITEM(learnts, k);

        if (!PyLong_CheckExact(lref))
            return type_error("_learnts", k, lref, "int");
        item = PyDict_GetItemWithError(cla_act, lref);
        if (item == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, lref);
            return -1;
        }
        if (!PyFloat_CheckExact(item)) {
            PyErr_Format(PyExc_TypeError, "_cla_act[%R] is %.100s, not "
                         "float", lref, Py_TYPE(item)->tp_name);
            return -1;
        }
        if ((value = PyFloat_FromDouble(PyFloat_AS_DOUBLE(item) * 1e-20))
                == NULL)
            return -1;
        status = PyDict_SetItem(cla_act, lref, value);
        Py_DECREF(value);
        if (status < 0)
            return -1;
    }
    *cla_inc *= 1e-20;
    return 0;
}

static PyObject *
bump_clause(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *cla_act = NULL, *learnts = NULL, *result = NULL;
    Py_ssize_t ref;
    double cla_inc, before;

    (void)module;
    if (check_nargs("bump_clause", nargs, 2) < 0
            || int_arg("bump_clause", args[1], &ref) < 0)
        return NULL;
    if ((cla_act = dict_attr(args[0], str_cla_act)) == NULL
            || (learnts = list_attr(args[0], str_learnts)) == NULL
            || float_attr(args[0], str_cla_inc, &cla_inc) < 0)
        goto done;
    before = cla_inc;
    if (bump_clause_at(cla_act, learnts, args[1], &cla_inc) < 0)
        goto done;
    if (cla_inc != before
            && set_float_attr(args[0], str_cla_inc, cla_inc) < 0)
        goto done;
    Py_INCREF(Py_None);
    result = Py_None;

done:
    Py_XDECREF(learnts);
    Py_XDECREF(cla_act);
    return result;
}

/* Scale every activity and *var_inc by 1e-100.  Every heap entry goes
   stale except those of zero-activity variables, so the live flags are
   recomputed from one scan of the heap. */
static int
rescale_activity(PyObject *activity, PyObject *live, PyObject *heap,
                 Py_ssize_t num_vars, double *var_inc)
{
    Py_ssize_t v, var;
    double act, key;

    for (v = 1; v <= num_vars; v++) {
        if (get_float(activity, v, &act, "_activity") < 0
                || set_float(activity, v, act * 1e-100, "_activity") < 0)
            return -1;
    }
    *var_inc *= 1e-100;
    for (v = 0; v < PyList_GET_SIZE(live); v++) {
        if (set_bool(live, v, 0, "_heap_live") < 0)
            return -1;
    }
    for (v = 0; v < PyList_GET_SIZE(heap); v++) {
        if (heap_entry(PyList_GET_ITEM(heap, v), &key, &var) < 0
                || get_float(activity, var, &act, "_activity") < 0)
            return -1;
        if (-key == act && set_bool(live, var, 1, "_heap_live") < 0)
            return -1;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* analyze                                                             */
/* ------------------------------------------------------------------ */

/* The solver state analyze works on. */
typedef struct {
    PyObject *seen, *level, *arena, *trail, *trail_lim, *reason;
    PyObject *activity, *heap, *live, *learnts, *cla_act, *proof_ids;
    PyObject *stats, *chain;        /* chain is NULL when not logging */
    unsigned char *zero;            /* per var: in zero_marked */
    unsigned char *member;          /* per literal: in the learnt clause */
    Py_ssize_t zero_len, member_len, num_vars;
    int any_zero;
    double var_inc, cla_inc;
} Analysis;

static void
analysis_clear(Analysis *a)
{
    Py_XDECREF(a->seen);
    Py_XDECREF(a->level);
    Py_XDECREF(a->arena);
    Py_XDECREF(a->trail);
    Py_XDECREF(a->trail_lim);
    Py_XDECREF(a->reason);
    Py_XDECREF(a->activity);
    Py_XDECREF(a->heap);
    Py_XDECREF(a->live);
    Py_XDECREF(a->learnts);
    Py_XDECREF(a->cla_act);
    Py_XDECREF(a->proof_ids);
    Py_XDECREF(a->stats);
    Py_XDECREF(a->chain);
    PyMem_Free(a->zero);
}

static inline void
mark_zero(Analysis *a, Py_ssize_t var)
{
    if (var >= 0 && var < a->zero_len) {
        a->zero[var] = 1;
        a->any_zero = 1;
    }
}

static inline int
is_member(Analysis *a, Py_ssize_t lit)
{
    return lit >= 0 && lit < a->member_len && a->member[lit];
}

/* Append (var, proof_ids[ref]) to the chain (when logging). */
static int
chain_step(Analysis *a, Py_ssize_t var, PyObject *ref)
{
    PyObject *pid, *var_obj, *step;
    int status;

    if (a->chain == NULL)
        return 0;
    pid = PyDict_GetItemWithError(a->proof_ids, ref);
    if (pid == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, ref);
        return -1;
    }
    if ((var_obj = PyLong_FromSsize_t(var)) == NULL)
        return -1;
    step = PyTuple_Pack(2, var_obj, pid);
    Py_DECREF(var_obj);
    if (step == NULL)
        return -1;
    status = PyList_Append(a->chain, step);
    Py_DECREF(step);
    return status;
}

/* *size = the literal count of the clause at ref, whose words must all
   lie inside the arena. */
static int
clause_size(Analysis *a, Py_ssize_t ref, Py_ssize_t *size)
{
    Py_ssize_t header;

    if (get_int(a->arena, ref, &header, "_arena") < 0)
        return -1;
    *size = header >> 1;
    if (*size < 0 || *size >= PyList_GET_SIZE(a->arena) - ref) {
        PyErr_Format(PyExc_IndexError, "clause %zd of size %zd overruns "
                     "_arena (length %zd)", ref, *size,
                     PyList_GET_SIZE(a->arena));
        return -1;
    }
    return 0;
}

/*
 * Local learnt-clause minimization (self-subsuming resolution).  A
 * literal other than the asserting one is redundant when every other
 * literal of its variable's reason is in the learnt clause or false at
 * level 0.  Each removal appends one resolution step to the chain, and
 * the level-0 literals it drags in are marked for the elimination pass.
 */
static int
minimize(Analysis *a, PyObject *learnt, Py_ssize_t *removed)
{
    PyObject *ref_obj = NULL;
    Py_ssize_t k, lit, var, ref, size, p, l, lvl;
    int changed = 1, redundant, status = -1;

    while (changed) {
        changed = 0;
        for (k = PyList_GET_SIZE(learnt) - 1; k > 0; k--) {
            if (get_int(learnt, k, &lit, "learnt clause") < 0)
                goto done;
            var = lit >> 1;
            if (get_int(a->reason, var, &ref, "_reason") < 0)
                goto done;
            if (ref == NO_REASON)
                continue;
            hold(&ref_obj, a->reason, var);
            if (clause_size(a, ref, &size) < 0)
                goto done;
            redundant = 1;
            for (p = ref + 1; p < ref + 1 + size; p++) {
                if (get_int(a->arena, p, &l, "_arena") < 0)
                    goto done;
                if ((l >> 1) != var && !is_member(a, l)) {
                    if (get_int(a->level, l >> 1, &lvl, "_level") < 0)
                        goto done;
                    if (lvl != 0) {
                        redundant = 0;
                        break;
                    }
                }
            }
            if (!redundant)
                continue;
            if (lit >= 0 && lit < a->member_len)
                a->member[lit] = 0;
            if (PyList_SetSlice(learnt, k, k + 1, NULL) < 0)
                goto done;
            *removed += 1;
            if (set_bool(a->seen, var, 0, "_seen") < 0
                    || chain_step(a, var, ref_obj) < 0)
                goto done;
            for (p = ref + 1; p < ref + 1 + size; p++) {
                if (get_int(a->arena, p, &l, "_arena") < 0)
                    goto done;
                if ((l >> 1) != var && !is_member(a, l)) {
                    if (get_int(a->level, l >> 1, &lvl, "_level") < 0)
                        goto done;
                    if (lvl == 0)
                        mark_zero(a, l >> 1);
                }
            }
            changed = 1;
        }
    }
    status = 0;

done:
    Py_XDECREF(ref_obj);
    return status;
}

/* Raise repro.proof.store.ProofError(message). */
static void
proof_error(const char *format, Py_ssize_t value)
{
    PyObject *store = PyImport_ImportModule("repro.proof.store");
    PyObject *error = NULL;

    if (store != NULL) {
        error = PyObject_GetAttrString(store, "ProofError");
        Py_DECREF(store);
    }
    if (error != NULL) {
        PyErr_Format(error, format, value);
        Py_DECREF(error);
    }
}

/*
 * Append chain steps resolving away the level-0 literals: walk the
 * level-0 trail segment in reverse, resolving each marked variable with
 * its reason and marking the reason's other variables.  Reverse trail
 * order puts a variable's step after every step that could have brought
 * its literal into the resolvent.
 */
static int
eliminate_level0(Analysis *a)
{
    PyObject *ref_obj = NULL;
    Py_ssize_t bound, pos, lit, var, ref, size, p, l;
    int status = -1;

    if (PyList_GET_SIZE(a->trail_lim) > 0) {
        if (get_int(a->trail_lim, 0, &bound, "_trail_lim") < 0)
            return -1;
    }
    else
        bound = PyList_GET_SIZE(a->trail);
    for (pos = bound - 1; pos >= 0; pos--) {
        if (get_int(a->trail, pos, &lit, "_trail") < 0)
            goto done;
        var = lit >> 1;
        if (var < 0 || var >= a->zero_len || !a->zero[var])
            continue;
        if (get_int(a->reason, var, &ref, "_reason") < 0)
            goto done;
        if (ref == NO_REASON) {
            proof_error("level-0 variable %zd has no reason", var);
            goto done;
        }
        hold(&ref_obj, a->reason, var);
        if (chain_step(a, var, ref_obj) < 0
                || clause_size(a, ref, &size) < 0)
            goto done;
        for (p = ref + 1; p < ref + 1 + size; p++) {
            if (get_int(a->arena, p, &l, "_arena") < 0)
                goto done;
            if ((l >> 1) != var)
                mark_zero(a, l >> 1);
        }
    }
    status = 0;

done:
    Py_XDECREF(ref_obj);
    return status;
}

/*
 * First-UIP conflict analysis with proof logging.  Returns
 * (learnt_lits, backtrack_level, chain): internal literals with the
 * asserting one first and the highest other level second, and the
 * trivial resolution chain deriving the clause (None when not logging).
 * Level-0 literals are dropped from the clause and resolved away at the
 * end of the chain, so the logged derivation stays exact.
 */
static PyObject *
analyze(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Analysis a = {0};
    PyObject *solver, *conflict_obj, *ref_obj = NULL, *learnt = NULL;
    PyObject *proof, *pid, *uip_obj, *result = NULL;
    Py_ssize_t conflict, current_level, path_count = 0, ref, pos, size;
    Py_ssize_t p, lit, var, lvl, uip = 0, removed = 0, k, best, backtrack;
    Py_ssize_t lvl_k, lvl_best;
    double act;
    int seen;

    (void)module;
    if (check_nargs("analyze", nargs, 2) < 0
            || int_arg("analyze", args[1], &conflict) < 0)
        return NULL;
    solver = args[0];
    conflict_obj = args[1];
    if ((a.seen = list_attr(solver, str_seen)) == NULL
            || (a.level = list_attr(solver, str_level)) == NULL
            || (a.arena = list_attr(solver, str_arena)) == NULL
            || (a.trail = list_attr(solver, str_trail)) == NULL
            || (a.trail_lim = list_attr(solver, str_trail_lim)) == NULL
            || (a.reason = list_attr(solver, str_reason)) == NULL
            || (a.activity = list_attr(solver, str_activity)) == NULL
            || (a.heap = list_attr(solver, str_heap)) == NULL
            || (a.live = list_attr(solver, str_heap_live)) == NULL
            || (a.learnts = list_attr(solver, str_learnts)) == NULL
            || (a.cla_act = dict_attr(solver, str_cla_act)) == NULL
            || (a.proof_ids = dict_attr(solver, str_proof_ids)) == NULL
            || (a.stats = PyObject_GetAttr(solver, str_stats)) == NULL
            || float_attr(solver, str_var_inc, &a.var_inc) < 0
            || float_attr(solver, str_cla_inc, &a.cla_inc) < 0
            || int_attr(solver, str_num_vars, &a.num_vars) < 0
            || (proof = PyObject_GetAttr(solver, str_proof)) == NULL)
        goto done;
    Py_DECREF(proof);
    if (proof != Py_None) {
        /* chain = [proof_ids[conflict]] */
        pid = PyDict_GetItemWithError(a.proof_ids, conflict_obj);
        if (pid == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, conflict_obj);
            goto done;
        }
        if ((a.chain = PyList_New(1)) == NULL)
            goto done;
        Py_INCREF(pid);
        PyList_SET_ITEM(a.chain, 0, pid);
    }
    a.zero_len = PyList_GET_SIZE(a.level);
    a.member_len = 2 * a.zero_len;
    if ((a.zero = PyMem_Calloc(a.zero_len + a.member_len + 1, 1)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    a.member = a.zero + a.zero_len;
    current_level = PyList_GET_SIZE(a.trail_lim);
    /* learnt[0] is the asserting literal, set once the UIP is found. */
    if ((learnt = PyList_New(1)) == NULL)
        goto done;
    Py_INCREF(Py_None);
    PyList_SET_ITEM(learnt, 0, Py_None);

    ref = conflict;
    Py_INCREF(conflict_obj);
    ref_obj = conflict_obj;
    pos = PyList_GET_SIZE(a.trail) - 1;
    for (;;) {
        if (clause_size(&a, ref, &size) < 0)
            goto done;
        /* A learnt clause (header bit 0, checked by clause_size). */
        if ((PyLong_AsSsize_t(PyList_GET_ITEM(a.arena, ref)) & 1)
                && bump_clause_at(a.cla_act, a.learnts, ref_obj,
                                  &a.cla_inc) < 0)
            goto done;
        for (p = ref + (ref == conflict ? 1 : 2); p < ref + 1 + size; p++) {
            if (get_int(a.arena, p, &lit, "_arena") < 0)
                goto done;
            var = lit >> 1;
            if (get_bool(a.seen, var, &seen, "_seen") < 0)
                goto done;
            if (seen)
                continue;
            if (get_int(a.level, var, &lvl, "_level") < 0)
                goto done;
            if (lvl == 0) {
                mark_zero(&a, var);
                continue;
            }
            /* Mark, then the VSIDS bump (the rescale branch is cold). */
            if (set_bool(a.seen, var, 1, "_seen") < 0
                    || get_float(a.activity, var, &act, "_activity") < 0)
                goto done;
            act += a.var_inc;
            if (set_float(a.activity, var, act, "_activity") < 0)
                goto done;
            if (act > 1e100) {
                if (rescale_activity(a.activity, a.live, a.heap,
                                     a.num_vars, &a.var_inc) < 0
                        || get_float(a.activity, var, &act,
                                     "_activity") < 0)
                    goto done;
            }
            if (heap_push(a.heap, -act, var) < 0
                    || set_bool(a.live, var, 1, "_heap_live") < 0)
                goto done;
            if (lvl >= current_level)
                path_count += 1;
            else if (PyList_Append(learnt, PyList_GET_ITEM(a.arena, p)) < 0)
                goto done;
        }
        /* Pick the next trail literal to expand. */
        for (;;) {
            if (get_int(a.trail, pos, &uip, "_trail") < 0
                    || get_bool(a.seen, uip >> 1, &seen, "_seen") < 0)
                goto done;
            if (seen)
                break;
            pos -= 1;
        }
        var = uip >> 1;
        if (set_bool(a.seen, var, 0, "_seen") < 0)
            goto done;
        pos -= 1;
        path_count -= 1;
        if (path_count == 0)
            break;
        if (get_int(a.reason, var, &ref, "_reason") < 0)
            goto done;
        hold(&ref_obj, a.reason, var);
        if (chain_step(&a, var, ref_obj) < 0)
            goto done;
    }
    if ((uip_obj = PyLong_FromSsize_t(uip ^ 1)) == NULL
            || PyList_SetItem(learnt, 0, uip_obj) < 0)
        goto done;

    for (k = 0; k < PyList_GET_SIZE(learnt); k++) {
        if (get_int(learnt, k, &lit, "learnt clause") < 0)
            goto done;
        if (lit >= 0 && lit < a.member_len)
            a.member[lit] = 1;
    }
    if (minimize(&a, learnt, &removed) < 0)
        goto done;
    if (removed && add_to_attr(a.stats, str_minimized, removed) < 0)
        goto done;
    if (a.chain != NULL && a.any_zero && eliminate_level0(&a) < 0)
        goto done;
    for (k = 0; k < PyList_GET_SIZE(learnt); k++) {
        if (get_int(learnt, k, &lit, "learnt clause") < 0
                || set_bool(a.seen, lit >> 1, 0, "_seen") < 0)
            goto done;
    }
    backtrack = 0;
    if (PyList_GET_SIZE(learnt) > 1) {
        /* Move the literal of the second-highest level to slot 1. */
        best = 1;
        for (k = 2; k < PyList_GET_SIZE(learnt); k++) {
            if (get_int(learnt, k, &lit, "learnt clause") < 0
                    || get_int(a.level, lit >> 1, &lvl_k, "_level") < 0
                    || get_int(learnt, best, &lit, "learnt clause") < 0
                    || get_int(a.level, lit >> 1, &lvl_best, "_level") < 0)
                goto done;
            if (lvl_k > lvl_best)
                best = k;
        }
        swap_items(learnt, 1, best);
        if (get_int(learnt, 1, &lit, "learnt clause") < 0
                || get_int(a.level, lit >> 1, &backtrack, "_level") < 0)
            goto done;
    }
    if (divide_by_attr(solver, str_var_decay, a.var_inc, &a.var_inc) < 0
            || divide_by_attr(solver, str_clause_decay, a.cla_inc,
                              &a.cla_inc) < 0
            || set_float_attr(solver, str_var_inc, a.var_inc) < 0
            || set_float_attr(solver, str_cla_inc, a.cla_inc) < 0)
        goto done;
    result = Py_BuildValue("(OnO)", learnt, backtrack,
                           a.chain != NULL ? a.chain : Py_None);

done:
    Py_XDECREF(learnt);
    Py_XDECREF(ref_obj);
    analysis_clear(&a);
    return result;
}

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef methods[] = {
    {"propagate", (PyCFunction)propagate, METH_O,
     "propagate(solver)\n--\n\nUnit propagation over the solver's own "
     "lists; returns the\nconflicting clause ref or None."},
    {"analyze", (PyCFunction)(void (*)(void))analyze, METH_FASTCALL,
     "analyze(solver, conflict)\n--\n\nFirst-UIP conflict analysis; "
     "returns (learnt, backtrack, chain)."},
    {"bump_clause", (PyCFunction)(void (*)(void))bump_clause, METH_FASTCALL,
     "bump_clause(solver, ref)\n--\n\nBump a learnt clause's activity, "
     "rescaling past 1e20."},
    {"cancel_until", (PyCFunction)(void (*)(void))cancel_until,
     METH_FASTCALL,
     "cancel_until(solver, level)\n--\n\nUndo all assignments above "
     "*level*."},
    {"pick_branch_var", (PyCFunction)pick_branch_var, METH_O,
     "pick_branch_var(solver)\n--\n\nThe next decision variable, or "
     "None when all are assigned."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_propagate",
    "The native CDCL search of repro.sat.solver.Solver.", -1,
    NULL, NULL, NULL, NULL, NULL,
};

static int
intern(PyObject **slot, const char *name)
{
    *slot = PyUnicode_InternFromString(name);
    return *slot == NULL ? -1 : 0;
}

PyMODINIT_FUNC
PyInit__propagate(void)
{
    PyObject *module, *function, *method;
    PyMethodDef *def;

    if (intern(&str_trail, "_trail") < 0
            || intern(&str_watches, "_watches") < 0
            || intern(&str_lit_val, "_lit_val") < 0
            || intern(&str_arena, "_arena") < 0
            || intern(&str_level, "_level") < 0
            || intern(&str_reason, "_reason") < 0
            || intern(&str_trail_lim, "_trail_lim") < 0
            || intern(&str_stats, "stats") < 0
            || intern(&str_qhead, "_qhead") < 0
            || intern(&str_propagations, "propagations") < 0
            || intern(&str_seen, "_seen") < 0
            || intern(&str_activity, "_activity") < 0
            || intern(&str_heap, "_heap") < 0
            || intern(&str_heap_live, "_heap_live") < 0
            || intern(&str_phase, "_phase") < 0
            || intern(&str_num_vars, "num_vars") < 0
            || intern(&str_var_inc, "_var_inc") < 0
            || intern(&str_cla_inc, "_cla_inc") < 0
            || intern(&str_var_decay, "_var_decay") < 0
            || intern(&str_clause_decay, "_clause_decay") < 0
            || intern(&str_cla_act, "_cla_act") < 0
            || intern(&str_learnts, "_learnts") < 0
            || intern(&str_proof_ids, "_proof_ids") < 0
            || intern(&str_proof, "proof") < 0
            || intern(&str_minimized, "minimized_literals") < 0
            || intern(&str_compact_heap, "_compact_heap") < 0
            || (int_zero = PyLong_FromLong(0)) == NULL
            || (int_one = PyLong_FromLong(1)) == NULL
            || (int_minus_one = PyLong_FromLong(-1)) == NULL)
        return NULL;
    module = PyModule_Create(&module_def);
    if (module == NULL)
        return NULL;
    /* An instance method binds like a def, so a class attribute such as
       Solver._propagate = propagate receives the solver as its first
       argument. */
    for (def = methods; def->ml_name != NULL; def++) {
        function = PyCFunction_NewEx(def, NULL, NULL);
        if (function == NULL) {
            Py_DECREF(module);
            return NULL;
        }
        method = PyInstanceMethod_New(function);
        Py_DECREF(function);
        if (method == NULL
                || PyModule_AddObject(module, def->ml_name, method) < 0) {
            Py_XDECREF(method);
            Py_DECREF(module);
            return NULL;
        }
    }
    return module;
}

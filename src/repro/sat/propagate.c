/*
 * Unit propagation for repro.sat.solver.Solver, in C.
 *
 * propagate(solver) is a statement-for-statement twin of
 * Solver._propagate_python: it reads and writes the solver's own lists
 * (_trail, _watches, _lit_val, _arena, _level, _reason) in place, in the
 * same order, so the search trajectory and the proofs it logs are those
 * of the Python method.  The Python method's comments explain the watch
 * scheme; the comments here only map C back to it.
 *
 * Every index is bounds-checked and every item type-checked (lists must
 * be lists, items exact ints), so a corrupt solver state raises
 * IndexError, TypeError or ValueError instead of crashing the process.
 * Only exact ints are released from a list slot, so no Python code runs
 * inside the loop; the watch list and the ref and first items are still
 * held as strong references while in use, since a corrupt state may
 * alias one list to another.
 *
 * The module is built on first import by repro.sat.native; it uses only
 * API present in CPython 3.9 (METH_O, the list API, PyInstanceMethod).
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

static PyObject *str_trail, *str_watches, *str_lit_val, *str_arena;
static PyObject *str_level, *str_reason, *str_trail_lim, *str_stats;
static PyObject *str_qhead, *str_propagations;
static PyObject *int_one, *int_minus_one;

/* *out = list[index]; an exact int inside the list's bounds. */
static inline int
get_int(PyObject *list, Py_ssize_t index, Py_ssize_t *out, const char *name)
{
    PyObject *item;

    if (index < 0 || index >= PyList_GET_SIZE(list)) {
        PyErr_Format(PyExc_IndexError,
                     "propagate: %s index %zd out of range (length %zd)",
                     name, index, PyList_GET_SIZE(list));
        return -1;
    }
    item = PyList_GET_ITEM(list, index);
    if (!PyLong_CheckExact(item)) {
        PyErr_Format(PyExc_TypeError,
                     "propagate: %s[%zd] is %.100s, not int",
                     name, index, Py_TYPE(item)->tp_name);
        return -1;
    }
    *out = PyLong_AsSsize_t(item);
    if (*out == -1 && PyErr_Occurred()) {
        PyErr_Format(PyExc_ValueError,
                     "propagate: %s[%zd] does not fit a machine word",
                     name, index);
        return -1;
    }
    return 0;
}

/* *out = watches[index] (borrowed); a list inside the bounds. */
static inline int
get_list(PyObject *list, Py_ssize_t index, PyObject **out)
{
    PyObject *item;

    if (index < 0 || index >= PyList_GET_SIZE(list)) {
        PyErr_Format(PyExc_IndexError,
                     "propagate: _watches index %zd out of range "
                     "(length %zd)", index, PyList_GET_SIZE(list));
        return -1;
    }
    item = PyList_GET_ITEM(list, index);
    if (!PyList_CheckExact(item)) {
        PyErr_Format(PyExc_TypeError,
                     "propagate: _watches[%zd] is %.100s, not list",
                     index, Py_TYPE(item)->tp_name);
        return -1;
    }
    *out = item;
    return 0;
}

/* list[index] = value, over a slot that holds an exact int. */
static inline int
set_item(PyObject *list, Py_ssize_t index, PyObject *value, const char *name)
{
    PyObject *old;

    if (index < 0 || index >= PyList_GET_SIZE(list)) {
        PyErr_Format(PyExc_IndexError,
                     "propagate: %s index %zd out of range (length %zd)",
                     name, index, PyList_GET_SIZE(list));
        return -1;
    }
    old = PyList_GET_ITEM(list, index);
    if (!PyLong_CheckExact(old)) {
        PyErr_Format(PyExc_TypeError,
                     "propagate: %s[%zd] is %.100s, not int",
                     name, index, Py_TYPE(old)->tp_name);
        return -1;
    }
    Py_INCREF(value);
    PyList_SET_ITEM(list, index, value);
    Py_DECREF(old);
    return 0;
}

/* Exchange two slots that were both just read as ints. */
static inline void
swap_items(PyObject *list, Py_ssize_t a, Py_ssize_t b)
{
    PyObject *tmp = PyList_GET_ITEM(list, a);

    PyList_SET_ITEM(list, a, PyList_GET_ITEM(list, b));
    PyList_SET_ITEM(list, b, tmp);
}

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

/* New reference to getattr(solver, name), which must be a list. */
static PyObject *
list_attr(PyObject *solver, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(solver, name);

    if (value != NULL && !PyList_CheckExact(value)) {
        PyErr_Format(PyExc_TypeError, "propagate: Solver.%U is %.100s, "
                     "not list", name, Py_TYPE(value)->tp_name);
        Py_CLEAR(value);
    }
    return value;
}

/* stats.propagations += delta; self._qhead = qhead */
static int
store_progress(PyObject *solver, PyObject *stats, Py_ssize_t delta,
               Py_ssize_t qhead)
{
    PyObject *old, *step, *sum, *head;
    int status;

    old = PyObject_GetAttr(stats, str_propagations);
    if (old == NULL)
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
    status = PyObject_SetAttr(stats, str_propagations, sum);
    Py_DECREF(sum);
    if (status < 0)
        return -1;
    head = PyLong_FromSsize_t(qhead);
    if (head == NULL)
        return -1;
    status = PyObject_SetAttr(solver, str_qhead, head);
    Py_DECREF(head);
    return status;
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
    /* trail = self._trail ... reason = self._reason */
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
    /* qhead = qstart = self._qhead */
    if ((attr = PyObject_GetAttr(solver, str_qhead)) == NULL)
        goto done;
    if (!PyLong_CheckExact(attr)) {
        PyErr_Format(PyExc_TypeError, "propagate: Solver._qhead is "
                     "%.100s, not int", Py_TYPE(attr)->tp_name);
        Py_DECREF(attr);
        goto done;
    }
    qhead = PyLong_AsSsize_t(attr);
    Py_DECREF(attr);
    if (qhead == -1 && PyErr_Occurred())
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
            PyErr_Format(PyExc_ValueError, "propagate: _watches[%zd] has "
                         "odd length %zd", false_lit, n);
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
                PyErr_Format(PyExc_IndexError, "propagate: clause ref %zd "
                             "outside _arena (length %zd)", ref,
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
                    /* arena[ref + 1] = blocker; arena[ref + 2] = first */
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
                /* first = arena[ref + 2]; arena[ref + 1] = first;
                   arena[ref + 2] = false_lit */
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
            /* lit_val[first] = 1; lit_val[first ^ 1] = -1;
               level[var] = dlevel; reason[var] = ref; tappend(first) */
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

PyDoc_STRVAR(propagate_doc,
"propagate(solver)\n--\n\n"
"Unit propagation over the solver's own lists; returns the conflicting\n"
"clause ref or None.  The C twin of Solver._propagate_python.");

static PyMethodDef propagate_def = {
    "propagate", propagate, METH_O, propagate_doc
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_propagate",
    "Native unit propagation for repro.sat.solver.Solver.", -1,
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
            || (int_one = PyLong_FromLong(1)) == NULL
            || (int_minus_one = PyLong_FromLong(-1)) == NULL)
        return NULL;
    module = PyModule_Create(&module_def);
    if (module == NULL)
        return NULL;
    /* An instance method binds like a def, so the class attribute
       Solver._propagate = propagate receives the solver as its one
       argument. */
    function = PyCFunction_NewEx(&propagate_def, NULL, NULL);
    if (function == NULL) {
        Py_DECREF(module);
        return NULL;
    }
    method = PyInstanceMethod_New(function);
    Py_DECREF(function);
    if (method == NULL || PyModule_AddObject(module, "propagate", method) < 0) {
        Py_XDECREF(method);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}

/*
 * The resolution proof store of repro.proof.store.ProofStore, in C.
 *
 * One type, Store, which ProofStore subclasses.  A Store keeps the same
 * columns as ReferenceProofStore, as the same Python objects, so every
 * reader (checker, linter, TraceCheck writer, stitcher) sees the same
 * values: the clause list (sorted tuples of int literals), the kind list
 * ("axiom" or "derived"), the chain list (None, or [first, (pivot, id),
 * ...]) and the axiom dict (clause -> id).  The counters and the first
 * empty clause's id are C fields.
 *
 * What runs here:
 *
 *   - add_axiom and add_derived, with every check of the reference:
 *     literal types and range, normalization (sorted, duplicates merged),
 *     literal 0 and tautologies on axioms, axiom deduplication, chain
 *     arity and step shape, pivot and id types, prior references, the
 *     validate replay and the proof/... recorder counts.  Each rejection
 *     raises the reference's exception, message, rule_id and chain.
 *   - needed_ids, the cone walk, and rebuild, the column rebuild, behind
 *     repro.proof.trim.
 *
 * Tests write into the columns to build corrupt proofs, so nothing here
 * trusts what they hold: every item is checked as it is read.  Where the
 * C code meets an item of another shape than the appends produce, it
 * hands the work to the reference's own Python: a clause that is not a
 * sorted tuple of ints is replayed by repro.proof.store.resolve, and a
 * cone walk or rebuild that would read such an item is run whole by
 * ReferenceProofStore.needed_ids or .rebuild.  The columns can be set to
 * lists only.
 *
 * The module is built on first import by repro.native; it uses only API
 * present in CPython 3.9.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <stddef.h>
#include <stdlib.h>

/* A literal: its value and its int, borrowed from the caller's sequence
   or the clause tuple it was read from. */
typedef struct { long long v; PyObject *o; } Lit;

typedef struct {
    PyObject_HEAD
    PyObject *clauses, *kinds, *chains, *axiom_ids;
    PyObject *validate, *recorder;
    Py_ssize_t num_axioms, num_derived, num_resolutions;
    Py_ssize_t empty_id;          /* -1: no empty clause yet */
} Store;

#define LOCAL_LITS 64

static PyTypeObject StoreType;
static PyObject *str_axiom, *str_derived, *str_enabled, *str_count;
static PyObject *str_rule_id, *str_chain, *str_root_id, *str_lits;
static PyObject *str_proof_clauses, *str_proof_axioms, *str_proof_derived;
static PyObject *str_proof_resolutions;

/* ------------------------------------------------------------------ */
/* Errors                                                              */
/* ------------------------------------------------------------------ */

/* repro.proof.store.<name>: the exception class and resolve() live in
   Python, next to ReferenceProofStore. */
static PyObject *
store_module_attr(const char *name)
{
    PyObject *module = PyImport_ImportModule("repro.proof.store");
    PyObject *attr;

    if (module == NULL)
        return NULL;
    attr = PyObject_GetAttrString(module, name);
    Py_DECREF(module);
    return attr;
}

/* Raise ProofError(message, rule_id=rule, chain=chain); steals message
   (which may be NULL after a failed format). */
static void
proof_error(PyObject *message, const char *rule, PyObject *chain)
{
    PyObject *cls = NULL, *args = NULL, *kwargs = NULL, *rule_obj = NULL;
    PyObject *exc = NULL;

    if (message == NULL)
        return;
    if ((cls = store_module_attr("ProofError")) == NULL
            || (args = PyTuple_Pack(1, message)) == NULL
            || (kwargs = PyDict_New()) == NULL
            || (rule_obj = PyUnicode_FromString(rule)) == NULL
            || PyDict_SetItem(kwargs, str_rule_id, rule_obj) < 0
            || (chain != NULL
                && PyDict_SetItem(kwargs, str_chain, chain) < 0))
        goto done;
    if ((exc = PyObject_Call(cls, args, kwargs)) != NULL)
        PyErr_SetObject(cls, exc);

done:
    Py_DECREF(message);
    Py_XDECREF(cls);
    Py_XDECREF(args);
    Py_XDECREF(kwargs);
    Py_XDECREF(rule_obj);
    Py_XDECREF(exc);
}

static void
index_error(void)
{
    PyErr_SetString(PyExc_IndexError, "list index out of range");
}

/* ------------------------------------------------------------------ */
/* Literals and clauses                                                */
/* ------------------------------------------------------------------ */

/* *v = the literal o: an int of at most 63 bits, so -*v is one too. */
static int
literal_value(PyObject *o, long long *v)
{
    int overflow;

    if (!PyLong_CheckExact(o)) {
        PyErr_Format(PyExc_TypeError, "literal %R is not an int", o);
        return -1;
    }
    *v = PyLong_AsLongLongAndOverflow(o, &overflow);
    if (*v == -1 && PyErr_Occurred())
        return -1;
    if (overflow || *v == LLONG_MIN) {
        PyErr_Format(PyExc_ValueError, "literal %R is out of range", o);
        return -1;
    }
    return 0;
}

static int
cmp_lit(const void *a, const void *b)
{
    long long x = ((const Lit *)a)->v, y = ((const Lit *)b)->v;

    return (x > y) - (x < y);
}

static void
sort_lits(Lit *buf, Py_ssize_t n)
{
    Py_ssize_t i, j;
    Lit lit;

    if (n > 16) {
        qsort(buf, (size_t)n, sizeof *buf, cmp_lit);
        return;
    }
    for (i = 1; i < n; i++) {
        lit = buf[i];
        for (j = i; j > 0 && buf[j - 1].v > lit.v; j--)
            buf[j] = buf[j - 1];
        buf[j] = lit;
    }
}

/* Whether the sorted distinct literals buf[0 .. n) hold some v and -v. */
static int
tautology(const Lit *buf, Py_ssize_t n)
{
    Py_ssize_t i, j;
    long long neg, pos;

    for (j = 0; j < n && buf[j].v < 0; j++)
        ;
    i = j - 1;                    /* the negative literal nearest 0 */
    if (j < n && buf[j].v == 0)
        j++;
    while (i >= 0 && j < n) {
        neg = -buf[i].v;
        pos = buf[j].v;
        if (neg == pos)
            return 1;
        if (neg < pos)
            i--;
        else
            j++;
    }
    return 0;
}

/*
 * A tuple of ints cannot be part of a reference cycle, so the tuples
 * made here leave the garbage collector's lists at once (as the
 * collector would take them off at its first pass): a rebuild makes one
 * per chain step, and tracking them made it about twice as slow.
 */
static PyObject *
lits_tuple(const Lit *buf, Py_ssize_t n)
{
    PyObject *tuple = PyTuple_New(n);
    Py_ssize_t k;

    if (tuple == NULL)
        return NULL;
    for (k = 0; k < n; k++) {
        Py_INCREF(buf[k].o);
        PyTuple_SET_ITEM(tuple, k, buf[k].o);
    }
    PyObject_GC_UnTrack(tuple);
    return tuple;
}

/*
 * The clause of lits, as the reference's tuple(sorted(set(lits))) after
 * checking every literal in order (TypeError, ValueError); for an axiom,
 * also refuse literal 0 and a tautology (ValueError).  A tuple that is
 * already sorted and free of duplicates is returned itself.
 */
static PyObject *
normalize(PyObject *lits, int axiom)
{
    PyObject *seq, *clause = NULL, **items;
    Lit local[LOCAL_LITS], *buf = local;
    Py_ssize_t n, k, m;
    int increasing = 1, zero = 0;

    if (PyList_CheckExact(lits) || PyTuple_CheckExact(lits)) {
        Py_INCREF(lits);
        seq = lits;
    }
    else if ((seq = PySequence_Tuple(lits)) == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    items = PySequence_Fast_ITEMS(seq);
    if (n > LOCAL_LITS
            && (buf = PyMem_Malloc((size_t)n * sizeof *buf)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (k = 0; k < n; k++) {
        if (literal_value(items[k], &buf[k].v) < 0)
            goto done;
        buf[k].o = items[k];
        if (k > 0 && buf[k - 1].v >= buf[k].v)
            increasing = 0;
        if (buf[k].v == 0)
            zero = 1;
    }
    m = n;
    if (increasing && PyTuple_CheckExact(seq)) {
        Py_INCREF(seq);
        clause = seq;
    }
    else {
        if (!increasing) {
            sort_lits(buf, n);
            for (m = 0, k = 0; k < n; k++) {
                if (m == 0 || buf[m - 1].v != buf[k].v)
                    buf[m++] = buf[k];
            }
        }
        if ((clause = lits_tuple(buf, m)) == NULL)
            goto done;
    }
    if (axiom && zero) {
        PyErr_SetString(PyExc_ValueError,
                        "literal 0 is not allowed in a clause");
        Py_CLEAR(clause);
    }
    else if (axiom && tautology(buf, m)) {
        PyErr_Format(PyExc_ValueError, "tautological clause: %R", clause);
        Py_CLEAR(clause);
    }

done:
    if (buf != local)
        PyMem_Free(buf);
    Py_DECREF(seq);
    return clause;
}

/* ------------------------------------------------------------------ */
/* Appends                                                             */
/* ------------------------------------------------------------------ */

static int
count(PyObject *recorder, PyObject *name, PyObject *amount)
{
    PyObject *done = PyObject_CallMethodObjArgs(recorder, str_count, name,
                                                amount, NULL);

    Py_XDECREF(done);
    return done == NULL ? -1 : 0;
}

/* Append one clause to the columns; a new reference to its id. */
static PyObject *
append(Store *s, PyObject *clause, PyObject *kind, PyObject *chain,
       Py_ssize_t steps)
{
    Py_ssize_t clause_id = PyList_GET_SIZE(s->clauses);
    PyObject *id, *enabled, *amount;
    int on, status;

    if (PyList_Append(s->clauses, clause) < 0
            || PyList_Append(s->kinds, kind) < 0
            || PyList_Append(s->chains, chain) < 0)
        return NULL;
    if (kind == str_axiom)
        s->num_axioms++;
    else {
        s->num_derived++;
        s->num_resolutions += steps;
    }
    if (PyTuple_GET_SIZE(clause) == 0 && s->empty_id < 0)
        s->empty_id = clause_id;
    if ((id = PyLong_FromSsize_t(clause_id)) == NULL)
        return NULL;
    if (s->recorder == Py_None)
        return id;
    /* recorder = self.recorder; if recorder is not None and
       recorder.enabled: count the clause. */
    Py_INCREF(s->recorder);
    if ((enabled = PyObject_GetAttr(s->recorder, str_enabled)) == NULL)
        goto fail;
    on = PyObject_IsTrue(enabled);
    Py_DECREF(enabled);
    if (on < 0)
        goto fail;
    if (on) {
        if (count(s->recorder, str_proof_clauses, NULL) < 0)
            goto fail;
        if (kind == str_axiom) {
            if (count(s->recorder, str_proof_axioms, NULL) < 0)
                goto fail;
        }
        else {
            if (count(s->recorder, str_proof_derived, NULL) < 0
                    || (amount = PyLong_FromSsize_t(steps)) == NULL)
                goto fail;
            status = count(s->recorder, str_proof_resolutions, amount);
            Py_DECREF(amount);
            if (status < 0)
                goto fail;
        }
    }
    Py_DECREF(s->recorder);
    return id;

fail:
    Py_DECREF(s->recorder);
    Py_DECREF(id);
    return NULL;
}

static PyObject *
add_axiom(Store *s, PyObject *lits)
{
    PyObject *clause = normalize(lits, 1), *id;

    if (clause == NULL)
        return NULL;
    id = PyDict_GetItemWithError(s->axiom_ids, clause);
    if (id != NULL && id != Py_None) {
        Py_INCREF(id);
        Py_DECREF(clause);
        return id;
    }
    if (PyErr_Occurred()) {
        Py_DECREF(clause);
        return NULL;
    }
    id = append(s, clause, str_axiom, Py_None, 0);
    if (id != NULL && PyDict_SetItem(s->axiom_ids, clause, id) < 0)
        Py_CLEAR(id);
    Py_DECREF(clause);
    return id;
}

/* Whether tuple t holds sorted distinct int literals; they go to buf. */
static int
literal_tuple(PyObject *t, Lit *buf, Py_ssize_t cap, Py_ssize_t *n)
{
    Py_ssize_t k;
    PyObject *o;
    int overflow;

    if (!PyTuple_CheckExact(t) || PyTuple_GET_SIZE(t) > cap)
        return 0;
    *n = PyTuple_GET_SIZE(t);
    for (k = 0; k < *n; k++) {
        o = PyTuple_GET_ITEM(t, k);
        if (!PyLong_CheckExact(o))
            return 0;
        buf[k].v = PyLong_AsLongLongAndOverflow(o, &overflow);
        if (buf[k].v == -1 && PyErr_Occurred()) {
            PyErr_Clear();
            return 0;
        }
        if (overflow || buf[k].v == LLONG_MIN
                || (k > 0 && buf[k - 1].v >= buf[k].v))
            return 0;
        buf[k].o = o;
    }
    return 1;
}

static int
has_literal(const Lit *buf, Py_ssize_t n, long long v)
{
    Py_ssize_t low = 0, high = n, mid;

    while (low < high) {
        mid = low + (high - low) / 2;
        if (buf[mid].v < v)
            low = mid + 1;
        else
            high = mid;
    }
    return low < n && buf[low].v == v;
}

/*
 * resolve(a, b, pivot): the reference's resolve() on two clauses of
 * sorted int literals, with its errors; any other clause goes to that
 * function itself.
 */
static PyObject *
resolve_pair(PyObject *a, PyObject *b, PyObject *pivot)
{
    Lit *buf = NULL, *la, *lb, *pos, *neg, *out;
    Py_ssize_t na = 0, nb = 0, np, nn, i, j, m;
    PyObject *resolve, *result = NULL;
    long long p = 0;
    int overflow, known;

    if (PyTuple_CheckExact(a) && PyTuple_CheckExact(b)) {
        na = PyTuple_GET_SIZE(a);
        nb = PyTuple_GET_SIZE(b);
        buf = PyMem_Malloc((size_t)(2 * (na + nb) + 1) * sizeof *buf);
        if (buf == NULL)
            return PyErr_NoMemory();
    }
    la = buf;
    lb = buf == NULL ? NULL : buf + na;
    if (buf == NULL || !literal_tuple(a, la, na, &na)
            || !literal_tuple(b, lb, nb, &nb)) {
        PyMem_Free(buf);
        if ((resolve = store_module_attr("resolve")) == NULL)
            return NULL;
        result = PyObject_CallFunctionObjArgs(resolve, a, b, pivot, NULL);
        Py_DECREF(resolve);
        return result;
    }
    p = PyLong_AsLongLongAndOverflow(pivot, &overflow);
    if (p == -1 && PyErr_Occurred())
        goto done;
    known = !overflow && p != LLONG_MIN;
    if (known && has_literal(la, na, p) && has_literal(lb, nb, -p)) {
        pos = la;
        np = na;
        neg = lb;
        nn = nb;
    }
    else if (known && has_literal(lb, nb, p) && has_literal(la, na, -p)) {
        pos = lb;
        np = nb;
        neg = la;
        nn = na;
    }
    else {
        proof_error(PyUnicode_FromFormat(
                        "pivot %S does not occur with opposite phases in "
                        "%R and %R", pivot, a, b),
                    "proof.pivot-phase", NULL);
        goto done;
    }
    /* set(pos) - {p} | set(neg) - {-p}, sorted. */
    out = buf + na + nb;
    for (i = 0, j = 0, m = 0; i < np || j < nn;) {
        Lit lit;

        if (j >= nn || (i < np && pos[i].v <= neg[j].v)) {
            lit = pos[i++];
            if (lit.v == p)
                continue;
        }
        else {
            lit = neg[j++];
            if (lit.v == -p)
                continue;
        }
        if (m == 0 || out[m - 1].v != lit.v)
            out[m++] = lit;
    }
    for (i = 0; i < m && out[i].v != 0; i++)
        ;
    if (i < m || tautology(out, m)) {
        proof_error(PyUnicode_FromFormat(
                        "tautological resolvent on pivot %S from %R and %R",
                        pivot, a, b),
                    "proof.tautology", NULL);
        goto done;
    }
    result = lits_tuple(out, m);

done:
    PyMem_Free(buf);
    return result;
}

/* The reference's replay_chain(chain) == clause, else ProofError. */
static int
check_replay(Store *s, PyObject *chain, PyObject *clause)
{
    PyObject *current, *step, *other, *next, *clauses;
    Py_ssize_t k, id;
    int differs;

    clauses = s->clauses;
    Py_INCREF(clauses);
    id = PyLong_AsSsize_t(PyList_GET_ITEM(chain, 0));
    current = id < PyList_GET_SIZE(clauses)
        ? PyList_GET_ITEM(clauses, id) : NULL;
    Py_XINCREF(current);
    for (k = 1; current != NULL && k < PyList_GET_SIZE(chain); k++) {
        step = PyList_GET_ITEM(chain, k);
        id = PyLong_AsSsize_t(PyTuple_GET_ITEM(step, 1));
        if (id >= PyList_GET_SIZE(clauses)) {
            Py_CLEAR(current);
            break;
        }
        other = PyList_GET_ITEM(clauses, id);
        Py_INCREF(other);
        Py_INCREF(step);
        next = resolve_pair(current, other, PyTuple_GET_ITEM(step, 0));
        Py_DECREF(step);
        Py_DECREF(other);
        Py_DECREF(current);
        current = next;
    }
    Py_DECREF(clauses);
    if (current == NULL) {
        if (!PyErr_Occurred())
            index_error();
        return -1;
    }
    differs = PyObject_RichCompareBool(current, clause, Py_NE);
    if (differs > 0)
        proof_error(PyUnicode_FromFormat(
                        "chain replays to %R, not the claimed %R", current,
                        clause),
                    "proof.chain-mismatch", chain);
    Py_DECREF(current);
    return differs != 0 ? -1 : 0;
}

/*
 * add_derived(lits, chain).  With copy 0, chain is a fresh list of the
 * caller's that the store keeps (the rebuild's); else the store keeps
 * list(chain).
 */
static PyObject *
add_derived(Store *s, PyObject *lits, PyObject *given, int copy)
{
    PyObject *clause, *chain, *step, *ref, *id = NULL;
    Py_ssize_t n, k, next_id, value;
    int validate;

    if ((clause = normalize(lits, 0)) == NULL)
        return NULL;
    if (copy)
        chain = PySequence_List(given);
    else {
        Py_INCREF(given);
        chain = given;
    }
    if (chain == NULL)
        goto done;
    n = PyList_GET_SIZE(chain);
    if (n < 2) {
        proof_error(PyUnicode_FromString(
                        "derivation chain needs at least two antecedents"),
                    "proof.chain-arity", chain);
        goto done;
    }
    if (!PyLong_Check(PyList_GET_ITEM(chain, 0))) {
        proof_error(PyUnicode_FromString("chain must start with a clause id"),
                    "proof.chain-arity", chain);
        goto done;
    }
    for (k = 1; k < n; k++) {
        step = PyList_GET_ITEM(chain, k);
        if (!PyTuple_Check(step) || PyTuple_GET_SIZE(step) != 2) {
            proof_error(PyUnicode_FromString(
                            "chain steps must be (pivot, id) pairs"),
                        "proof.chain-arity", chain);
            goto done;
        }
        if (!PyLong_CheckExact(PyTuple_GET_ITEM(step, 0))) {
            PyErr_Format(PyExc_TypeError, "pivot %R is not an int",
                         PyTuple_GET_ITEM(step, 0));
            goto done;
        }
    }
    next_id = PyList_GET_SIZE(s->clauses);
    for (k = 0; k < n; k++) {
        ref = k == 0 ? PyList_GET_ITEM(chain, 0)
                     : PyTuple_GET_ITEM(PyList_GET_ITEM(chain, k), 1);
        if (!PyLong_CheckExact(ref)) {
            PyErr_Format(PyExc_TypeError, "clause id %R is not an int", ref);
            goto done;
        }
        value = PyLong_AsSsize_t(ref);
        if (value == -1 && PyErr_Occurred())
            PyErr_Clear();        /* past Py_ssize_t: not yet derived */
        if (value < 0 || value >= next_id) {
            proof_error(PyUnicode_FromFormat(
                            "chain references clause %S not yet derived",
                            ref),
                        "proof.forward-ref", chain);
            goto done;
        }
    }
    if ((validate = PyObject_IsTrue(s->validate)) < 0
            || (validate && check_replay(s, chain, clause) < 0))
        goto done;
    id = append(s, clause, str_derived, chain, n - 1);

done:
    Py_DECREF(clause);
    Py_XDECREF(chain);
    return id;
}

/* ------------------------------------------------------------------ */
/* The trim: the cone walk and the rebuild                             */
/* ------------------------------------------------------------------ */

/*
 * Both run here on a store of the shape the appends give it: list
 * columns, kinds "axiom" and "derived", clause tuples, and chains that
 * are None or lists [id, (pivot, id), ...] of int ids.  Tests write
 * other values into the columns to build corrupt proofs.  On the first
 * item of any other shape, and before any Python code has run, the call
 * goes whole to ReferenceProofStore's method, which reads the columns as
 * it always did, so a corrupt store ends in the reference's result or
 * exception.
 */

/* ReferenceProofStore.<name>(s, arg). */
static PyObject *
reference(Store *s, const char *name, PyObject *arg)
{
    PyObject *cls = store_module_attr("ReferenceProofStore"), *method;
    PyObject *result;

    if (cls == NULL)
        return NULL;
    method = PyObject_GetAttrString(cls, name);
    Py_DECREF(cls);
    if (method == NULL)
        return NULL;
    result = PyObject_CallFunctionObjArgs(method, (PyObject *)s, arg, NULL);
    Py_DECREF(method);
    return result;
}

/* The value of x when it is an int in [0, n), else -1. */
static Py_ssize_t
id_value(PyObject *x, Py_ssize_t n)
{
    Py_ssize_t v;

    if (!PyLong_CheckExact(x))
        return -1;
    v = PyLong_AsSsize_t(x);
    if (v == -1 && PyErr_Occurred())
        PyErr_Clear();
    return v >= 0 && v < n ? v : -1;
}

/* chain[0] when k is 0, else the id of step chain[k], borrowed, when it
   is an int in a (pivot, id) tuple (the pivot goes to *pivot); else
   NULL. */
static PyObject *
chain_ref(PyObject *chain, Py_ssize_t k, PyObject **pivot)
{
    PyObject *item;

    if (k >= PyList_GET_SIZE(chain))
        return NULL;
    item = PyList_GET_ITEM(chain, k);
    if (k > 0) {
        if (!PyTuple_CheckExact(item) || PyTuple_GET_SIZE(item) != 2)
            return NULL;
        *pivot = PyTuple_GET_ITEM(item, 0);
        item = PyTuple_GET_ITEM(item, 1);
    }
    return PyLong_CheckExact(item) ? item : NULL;
}

static int
one_arg(const char *name, PyObject *keyword, PyObject *const *args,
        Py_ssize_t nargs, PyObject *kwnames, PyObject **value)
{
    Py_ssize_t nkw = kwnames == NULL ? 0 : PyTuple_GET_SIZE(kwnames);

    if (nargs + nkw > 1) {
        PyErr_Format(PyExc_TypeError, "%s() takes at most 1 argument",
                     name);
        return -1;
    }
    if (nkw == 1 && PyUnicode_Compare(PyTuple_GET_ITEM(kwnames, 0),
                                      keyword) != 0) {
        if (!PyErr_Occurred())
            PyErr_Format(PyExc_TypeError, "%s() got an unexpected keyword "
                         "argument %R", name, PyTuple_GET_ITEM(kwnames, 0));
        return -1;
    }
    *value = nargs + nkw == 1 ? args[0] : Py_None;
    return 0;
}

/*
 * The ids reachable from root through the chains, marked in seen[0 ..
 * n): 1, or 0 when some chain on the way is not of the appends' shape.
 * Runs no Python code.
 */
static int
walk(PyObject *chains, Py_ssize_t root, unsigned char *seen)
{
    Py_ssize_t n = PyList_GET_SIZE(chains), *stack, *grown, top = 0;
    Py_ssize_t cap = 64, len, k, v;
    PyObject *chain, *ref, *pivot;
    int shaped = 1;

    if ((stack = PyMem_Malloc((size_t)cap * sizeof *stack)) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    stack[top++] = root;
    while (shaped && top > 0) {
        v = stack[--top];
        if (seen[v])
            continue;
        seen[v] = 1;
        chain = PyList_GET_ITEM(chains, v);
        if (chain == Py_None)
            continue;
        len = PyList_CheckExact(chain) ? PyList_GET_SIZE(chain) : 0;
        shaped = len > 0;
        if (top + len > cap) {
            while (top + len > cap)
                cap *= 2;
            grown = PyMem_Realloc(stack, (size_t)cap * sizeof *stack);
            if (grown == NULL) {
                PyMem_Free(stack);
                PyErr_NoMemory();
                return -1;
            }
            stack = grown;
        }
        for (k = 0; shaped && k < len; k++) {
            ref = chain_ref(chain, k, &pivot);
            shaped = ref != NULL && (stack[top++] = id_value(ref, n)) >= 0;
        }
    }
    PyMem_Free(stack);
    return shaped;
}

static PyObject *
store_needed_ids(Store *s, PyObject *const *args, Py_ssize_t nargs,
                 PyObject *kwnames)
{
    PyObject *root, *needed = NULL, *id;
    unsigned char *seen;
    Py_ssize_t n, v;
    int shaped;

    if (one_arg("needed_ids", str_root_id, args, nargs, kwnames, &root) < 0)
        return NULL;
    if (!PyList_CheckExact(s->chains))
        return reference(s, "needed_ids", root);
    n = PyList_GET_SIZE(s->chains);
    /* No empty clause (empty_id -1) is the reference's error to raise. */
    v = root != Py_None ? id_value(root, n)
                        : s->empty_id < n ? s->empty_id : -1;
    if (v < 0)
        return reference(s, "needed_ids", root);
    if ((seen = PyMem_Calloc((size_t)n, 1)) == NULL)
        return PyErr_NoMemory();
    shaped = walk(s->chains, v, seen);
    if (shaped == 0) {
        PyMem_Free(seen);
        return reference(s, "needed_ids", root);
    }
    if (shaped < 0 || (needed = PySet_New(NULL)) == NULL)
        goto done;
    for (v = 0; v < n; v++) {
        if (!seen[v])
            continue;
        if ((id = PyLong_FromSsize_t(v)) == NULL
                || PySet_Add(needed, id) < 0) {
            Py_XDECREF(id);
            Py_CLEAR(needed);
            goto done;
        }
        Py_DECREF(id);
    }

done:
    PyMem_Free(seen);
    return needed;
}

/*
 * Whether clause v has the appends' shape, for the rebuild; then its
 * clause, kind and chain are in *clause, *kind and *chain, borrowed.
 */
static int
shaped_item(Store *s, Py_ssize_t v, PyObject **clause, PyObject **kind,
            PyObject **chain)
{
    PyObject *pivot;
    Py_ssize_t k;

    if (!PyList_CheckExact(s->clauses) || !PyList_CheckExact(s->kinds)
            || !PyList_CheckExact(s->chains)
            || v >= PyList_GET_SIZE(s->clauses)
            || v >= PyList_GET_SIZE(s->kinds)
            || v >= PyList_GET_SIZE(s->chains))
        return 0;
    *clause = PyList_GET_ITEM(s->clauses, v);
    *kind = PyList_GET_ITEM(s->kinds, v);
    *chain = PyList_GET_ITEM(s->chains, v);
    if (!PyTuple_CheckExact(*clause)
            || (*kind != str_axiom && *kind != str_derived))
        return 0;
    if (*kind == str_axiom || *chain == Py_None)
        return 1;
    if (!PyList_CheckExact(*chain) || PyList_GET_SIZE(*chain) == 0)
        return 0;
    for (k = 0; k < PyList_GET_SIZE(*chain); k++) {
        if (chain_ref(*chain, k, &pivot) == NULL)
            return 0;
    }
    return 1;
}

/* Raised when Python code the rebuild ran (a finalizer, a subclass's
   __init__) reshaped the columns it had checked. */
static void
changed(void)
{
    PyErr_SetString(PyExc_RuntimeError,
                    "the proof store changed during its rebuild");
}

/*
 * The reference's [id_map[chain[0]]] + [(pivot, id_map[ante]) for pivot,
 * ante in chain[1:]], with new_ids[v] the new id of old id v (or NULL).
 */
static PyObject *
map_chain(PyObject *chain, PyObject **new_ids, Py_ssize_t n)
{
    Py_ssize_t len = PyList_GET_SIZE(chain), k, v;
    PyObject *mapped = PyList_New(len), *ref, *pivot = NULL, *id, *pair;

    for (k = 0; mapped != NULL && k < len; k++) {
        if ((ref = chain_ref(chain, k, &pivot)) == NULL) {
            changed();
            Py_CLEAR(mapped);
            break;
        }
        v = id_value(ref, n);
        if (v < 0 || new_ids[v] == NULL) {
            PyErr_SetObject(PyExc_KeyError, ref);
            Py_CLEAR(mapped);
            break;
        }
        id = new_ids[v];
        Py_INCREF(id);
        if (k > 0) {
            Py_INCREF(pivot);
            if ((pair = PyTuple_New(2)) == NULL) {
                Py_DECREF(pivot);
                Py_DECREF(id);
                Py_CLEAR(mapped);
                break;
            }
            PyTuple_SET_ITEM(pair, 0, pivot);
            PyTuple_SET_ITEM(pair, 1, id);
            if (PyLong_CheckExact(pivot))
                PyObject_GC_UnTrack(pair);      /* two ints: see lits_tuple */
            id = pair;
        }
        PyList_SET_ITEM(mapped, k, id);
    }
    return mapped;
}

/* trimmed.add_axiom(clause) or trimmed.add_derived(clause, the mapped
   chain), as the reference's rebuild chooses. */
static PyObject *
rebuild_one(Store *s, Store *trimmed, PyObject **new_ids, Py_ssize_t n,
            Py_ssize_t v)
{
    PyObject *clause, *kind, *chain, *mapped, *id = NULL;

    if (!shaped_item(s, v, &clause, &kind, &chain)) {
        changed();
        return NULL;
    }
    Py_INCREF(clause);
    Py_INCREF(chain);
    if (kind == str_axiom || chain == Py_None)
        id = add_axiom(trimmed, clause);
    else if ((mapped = map_chain(chain, new_ids, n)) != NULL) {
        id = add_derived(trimmed, clause, mapped, 0);
        Py_DECREF(mapped);
    }
    Py_DECREF(clause);
    Py_DECREF(chain);
    return id;
}

static PyObject *
store_rebuild(Store *s, PyObject *keep)
{
    PyObject *it, *x, *trimmed = NULL, *id_map = NULL, *result = NULL;
    PyObject *key, *id, **new_ids = NULL, *clause, *kind, *chain;
    unsigned char *kept = NULL;
    Py_ssize_t n = 0, v;
    int shaped = PyAnySet_CheckExact(keep) && PyList_CheckExact(s->clauses);

    /* sorted(keep) by value, when it is a set of ids of shaped items;
       iterating a set of ints runs no Python code. */
    if (shaped) {
        n = PyList_GET_SIZE(s->clauses);
        if ((kept = PyMem_Calloc((size_t)n + 1, 1)) == NULL)
            return PyErr_NoMemory();
        if ((it = PyObject_GetIter(keep)) == NULL)
            goto done;
        while (shaped && (x = PyIter_Next(it)) != NULL) {
            v = id_value(x, n);
            Py_DECREF(x);
            if ((shaped = v >= 0))
                kept[v] = 1;
        }
        Py_DECREF(it);
        if (PyErr_Occurred())
            goto done;
        for (v = 0; shaped && v < n; v++)
            shaped = !kept[v] || shaped_item(s, v, &clause, &kind, &chain);
    }
    if (!shaped) {
        PyMem_Free(kept);
        return reference(s, "rebuild", keep);
    }
    trimmed = PyObject_CallNoArgs((PyObject *)Py_TYPE(s));
    if (trimmed == NULL)
        goto done;
    if (!PyObject_TypeCheck(trimmed, &StoreType)) {
        PyErr_Format(PyExc_TypeError, "%.200s() made a %.200s, not a store",
                     Py_TYPE(s)->tp_name, Py_TYPE(trimmed)->tp_name);
        goto done;
    }
    if ((id_map = PyDict_New()) == NULL)
        goto done;
    if ((new_ids = PyMem_Calloc((size_t)n + 1, sizeof *new_ids)) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (v = 0; v < n; v++) {
        if (!kept[v])
            continue;
        if ((id = rebuild_one(s, (Store *)trimmed, new_ids, n, v)) == NULL)
            goto done;
        key = PyLong_FromSsize_t(v);
        if (key == NULL || PyDict_SetItem(id_map, key, id) < 0) {
            Py_XDECREF(key);
            Py_DECREF(id);
            goto done;
        }
        new_ids[v] = id;                /* id_map holds it */
        Py_DECREF(key);
        Py_DECREF(id);
    }
    result = PyTuple_Pack(2, trimmed, id_map);

done:
    PyMem_Free(kept);
    PyMem_Free(new_ids);
    Py_XDECREF(trimmed);
    Py_XDECREF(id_map);
    return result;
}

/* ------------------------------------------------------------------ */
/* The type                                                            */
/* ------------------------------------------------------------------ */

static int
reset(Store *s, PyObject *validate, PyObject *recorder)
{
    PyObject *old[6] = {s->clauses, s->kinds, s->chains, s->axiom_ids,
                        s->validate, s->recorder};
    int k;

    s->clauses = PyList_New(0);
    s->kinds = PyList_New(0);
    s->chains = PyList_New(0);
    s->axiom_ids = PyDict_New();
    Py_INCREF(validate);
    s->validate = validate;
    Py_INCREF(recorder);
    s->recorder = recorder;
    s->num_axioms = s->num_derived = s->num_resolutions = 0;
    s->empty_id = -1;
    for (k = 0; k < 6; k++)
        Py_XDECREF(old[k]);
    if (s->clauses == NULL || s->kinds == NULL || s->chains == NULL
            || s->axiom_ids == NULL)
        return -1;
    return 0;
}

static PyObject *
store_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    Store *s = (Store *)type->tp_alloc(type, 0);

    (void)args;
    (void)kwargs;
    if (s != NULL && reset(s, Py_False, Py_None) < 0)
        Py_CLEAR(s);
    return (PyObject *)s;
}

static int
store_init(Store *s, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"validate", "recorder", NULL};
    PyObject *validate = Py_False, *recorder = Py_None;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|OO:ProofStore",
                                     keywords, &validate, &recorder))
        return -1;
    return reset(s, validate, recorder);
}

static int
store_traverse(Store *s, visitproc visit, void *arg)
{
    Py_VISIT(s->clauses);
    Py_VISIT(s->kinds);
    Py_VISIT(s->chains);
    Py_VISIT(s->axiom_ids);
    Py_VISIT(s->validate);
    Py_VISIT(s->recorder);
    return 0;
}

static int
store_clear(Store *s)
{
    Py_CLEAR(s->clauses);
    Py_CLEAR(s->kinds);
    Py_CLEAR(s->chains);
    Py_CLEAR(s->axiom_ids);
    Py_CLEAR(s->validate);
    Py_CLEAR(s->recorder);
    return 0;
}

static void
store_dealloc(Store *s)
{
    PyObject_GC_UnTrack(s);
    store_clear(s);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

/* The columns: after tp_clear they are NULL, which every method refuses
   rather than reads. */
static int
intact(Store *s)
{
    if (s->clauses == NULL || s->kinds == NULL || s->chains == NULL
            || s->axiom_ids == NULL || s->validate == NULL
            || s->recorder == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "the proof store was cleared");
        return 0;
    }
    return 1;
}

static PyObject *
store_add_axiom(Store *s, PyObject *lits)
{
    return intact(s) ? add_axiom(s, lits) : NULL;
}

static PyObject *
store_add_derived(Store *s, PyObject *const *args, Py_ssize_t nargs,
                  PyObject *kwnames)
{
    PyObject *given[2] = {NULL, NULL}, *name;
    Py_ssize_t nkw = kwnames == NULL ? 0 : PyTuple_GET_SIZE(kwnames), k, i;

    if (nargs > 2) {
        PyErr_SetString(PyExc_TypeError,
                        "add_derived() takes 2 arguments");
        return NULL;
    }
    for (k = 0; k < nargs; k++)
        given[k] = args[k];
    for (i = 0; i < nkw; i++) {
        name = PyTuple_GET_ITEM(kwnames, i);
        if (PyUnicode_Compare(name, str_lits) == 0)
            k = 0;
        else if (PyUnicode_Compare(name, str_chain) == 0)
            k = 1;
        else
            k = 2;
        if (PyErr_Occurred())
            return NULL;
        if (k == 2 || given[k] != NULL) {
            PyErr_Format(PyExc_TypeError, "add_derived() got an unexpected "
                         "or repeated keyword argument %R", name);
            return NULL;
        }
        given[k] = args[nargs + i];
    }
    if (given[0] == NULL || given[1] == NULL) {
        PyErr_SetString(PyExc_TypeError,
                        "add_derived() missing argument 'lits' or 'chain'");
        return NULL;
    }
    return intact(s) ? add_derived(s, given[0], given[1], 1) : NULL;
}

static PyObject *
store_needed_ids_method(Store *s, PyObject *const *args, Py_ssize_t nargs,
                        PyObject *kwnames)
{
    return intact(s) ? store_needed_ids(s, args, nargs, kwnames) : NULL;
}

static PyObject *
store_rebuild_method(Store *s, PyObject *keep)
{
    return intact(s) ? store_rebuild(s, keep) : NULL;
}

static PyObject *
store_find_empty_clause(Store *s, PyObject *unused)
{
    (void)unused;
    if (s->empty_id < 0)
        Py_RETURN_NONE;
    return PyLong_FromSsize_t(s->empty_id);
}

static Py_ssize_t
store_length(Store *s)
{
    return intact(s) ? PyList_GET_SIZE(s->clauses) : -1;
}

static PyObject *
get_object(Store *s, void *offset)
{
    PyObject *value = *(PyObject **)((char *)s + (size_t)offset);

    if (value == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "the proof store was cleared");
        return NULL;
    }
    Py_INCREF(value);
    return value;
}

/* validate, recorder: any object; a column: a list. */
static int
set_object(Store *s, PyObject *value, void *offset)
{
    PyObject **slot = (PyObject **)((char *)s + (size_t)offset), *old;

    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError,
                        "proof store attributes cannot be deleted");
        return -1;
    }
    if (offset != (void *)offsetof(Store, validate)
            && offset != (void *)offsetof(Store, recorder)
            && !PyList_Check(value)) {
        PyErr_Format(PyExc_TypeError, "a proof store column is a list, "
                     "not %.200s", Py_TYPE(value)->tp_name);
        return -1;
    }
    old = *slot;
    Py_INCREF(value);
    *slot = value;
    Py_XDECREF(old);
    return 0;
}

static PyObject *
get_count(Store *s, void *offset)
{
    return PyLong_FromSsize_t(*(Py_ssize_t *)((char *)s + (size_t)offset));
}

#define METHOD(name, func, flags, doc) \
    {name, (PyCFunction)(void (*)(void))func, flags, doc}

static PyMethodDef store_methods[] = {
    METHOD("add_axiom", store_add_axiom, METH_O,
           "add_axiom(lits)\n--\n\nRegister an axiom clause and return its "
           "id; an identical axiom\nreturns the existing id."),
    METHOD("add_derived", store_add_derived, METH_FASTCALL | METH_KEYWORDS,
           "add_derived(lits, chain)\n--\n\nRegister a derived clause with "
           "its chain [first_id, (pivot, id), ...]\nand return its id."),
    METHOD("needed_ids", store_needed_ids_method,
           METH_FASTCALL | METH_KEYWORDS,
           "needed_ids(root_id=None)\n--\n\nSet of clause ids in the "
           "antecedent cone of *root_id* (default:\nthe first empty "
           "clause)."),
    METHOD("rebuild", store_rebuild_method, METH_O,
           "rebuild(keep)\n--\n\nA new store of the clauses in *keep*, in "
           "id order, and the map\nfrom their old ids to their new ones."),
    METHOD("find_empty_clause", store_find_empty_clause, METH_NOARGS,
           "Id of the first empty clause, or None."),
    {NULL, NULL, 0, NULL},
};

#define OBJECT(name, field, doc, setter) \
    {name, (getter)get_object, setter, doc, \
     (void *)offsetof(Store, field)}
#define COUNT(name, field, doc) \
    {name, (getter)get_count, NULL, doc, (void *)offsetof(Store, field)}

static PyGetSetDef store_getset[] = {
    OBJECT("validate", validate, "Replay every chain at add_derived.",
           (setter)set_object),
    OBJECT("recorder", recorder, "Recorder counting proof/... (or None).",
           (setter)set_object),
    OBJECT("_clauses", clauses, "Clause column.", (setter)set_object),
    OBJECT("_kinds", kinds, "Kind column.", (setter)set_object),
    OBJECT("_chains", chains, "Chain column.", (setter)set_object),
    OBJECT("_axiom_ids", axiom_ids, "Axiom clause -> id.", NULL),
    COUNT("num_axioms", num_axioms, "Number of axiom clauses."),
    COUNT("num_derived", num_derived, "Number of derived clauses."),
    COUNT("num_resolutions", num_resolutions,
          "Total resolution steps across all derivation chains."),
    {NULL, NULL, NULL, NULL, NULL},
};

static PySequenceMethods store_as_sequence = {
    .sq_length = (lenfunc)store_length,
};

static PyTypeObject StoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.proof._store.Store",
    .tp_doc = "The columns and appends of repro.proof.store.ProofStore.",
    .tp_basicsize = sizeof(Store),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = store_new,
    .tp_init = (initproc)store_init,
    .tp_traverse = (traverseproc)store_traverse,
    .tp_clear = (inquiry)store_clear,
    .tp_dealloc = (destructor)store_dealloc,
    .tp_methods = store_methods,
    .tp_getset = store_getset,
    .tp_as_sequence = &store_as_sequence,
};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_store",
    "The native columns and appends of repro.proof.store.ProofStore.", -1,
    NULL, NULL, NULL, NULL, NULL,
};

static int
intern(PyObject **slot, const char *name)
{
    *slot = PyUnicode_InternFromString(name);
    return *slot == NULL ? -1 : 0;
}

PyMODINIT_FUNC
PyInit__store(void)
{
    PyObject *module;

    if (intern(&str_axiom, "axiom") < 0
            || intern(&str_derived, "derived") < 0
            || intern(&str_enabled, "enabled") < 0
            || intern(&str_count, "count") < 0
            || intern(&str_rule_id, "rule_id") < 0
            || intern(&str_chain, "chain") < 0
            || intern(&str_root_id, "root_id") < 0
            || intern(&str_lits, "lits") < 0
            || intern(&str_proof_clauses, "proof/clauses") < 0
            || intern(&str_proof_axioms, "proof/axioms") < 0
            || intern(&str_proof_derived, "proof/derived") < 0
            || intern(&str_proof_resolutions, "proof/resolutions") < 0
            || PyType_Ready(&StoreType) < 0)
        return NULL;
    if ((module = PyModule_Create(&module_def)) == NULL)
        return NULL;
    Py_INCREF(&StoreType);
    if (PyModule_AddObject(module, "Store", (PyObject *)&StoreType) < 0) {
        Py_DECREF(&StoreType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}

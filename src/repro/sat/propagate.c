/*
 * The CDCL search of repro.sat.solver.Solver, in C.
 *
 * One type, Core, which Solver subclasses.  A Core owns the whole solver
 * state as plain C arrays:
 *
 *   - the clause arena: per clause its proof id and activity, a header
 *     word (size << 2 | mark << 1 | learnt) and its literals; a clause is
 *     addressed by its ref, the offset of its header;
 *   - per literal its value and its watch list of (ref, blocker) pairs;
 *   - per variable its level, reason, saved phase, activity, branching-
 *     heap live flag and analysis marks;
 *   - the (-activity, var) branching heap, the trail and its level
 *     bounds, the problem and learnt clause lists, the search counters.
 *
 * A solve call (Core._search) runs the search here: propagation, first-
 * UIP analysis with minimization and level-0 elimination, backtracking,
 * branching, restarts, learnt-clause reduction, arena and heap
 * compaction, and level-0 and final-conflict analysis.  add_clause loads
 * clauses.  The core holds no Python object between calls: the budget,
 * progress tracker and clock are arguments of a solve call, the proof
 * store and stats block are read from the Solver when a call starts,
 * and the core calls back into Python only to log a clause
 * (ProofStore.add_axiom, add_derived), to charge the budget, to tick
 * progress (with Solver.stats current) and to read the clock.
 *
 * The moves are ReferenceSolver's (reference.py), on this encoding, so
 * every decision, learnt clause and resolution chain is the reference
 * search's:
 *
 *   - Heap entries compare by key, then by var (-0.0 == 0.0), and sift
 *     in heapq's order; compaction sifts each node after its children,
 *     which gives heapq.heapify's list.
 *   - Learnt-clause reduction sorts by activity, stably; watch placement
 *     on load and watch removal keep the reference's order.
 *   - Every float changes by one IEEE double operation per Python
 *     operation, built with -ffp-contract=off so that no multiply and add
 *     fuse into one rounding.
 *
 * Every literal, level, ref and count that Python passes in is checked
 * once, at the method that receives it (TypeError, ValueError or
 * IndexError); inside, the arrays are indexed without checks.  While a
 * method runs Python code (a callback), the state-changing methods raise
 * RuntimeError, so a callback cannot move the arrays under the search.
 * Tests read the state only through read-only snapshots (plain lists).
 *
 * The module is built on first import by repro.native; it uses only
 * API present in CPython 3.9.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

typedef uint32_t word_t;      /* arena word: a header or a literal */
typedef int32_t ref_t;        /* arena offset of a clause header */
typedef uint32_t lit_t;       /* var << 1 | negated */

#define NO_REASON (-1)        /* reason of a decision or free variable */
#define ERR (-2)              /* a propagation that raised */
#define NO_PROOF (-1LL)       /* proof id of a clause logged nowhere */
#define EXTRA 4               /* words before a header: proof id, activity */
#define MAX_VARS ((INT32_MAX >> 1) - 1)
#define LEARNT 1u
#define MARK 2u               /* reduce_db: locked; compaction: moved */
#define SIZE(arena, ref) ((Py_ssize_t)((arena)[ref] >> 2))
#define DIMACS(lit) ((lit) & 1 ? -(long long)((lit) >> 1) \
                               : (long long)((lit) >> 1))

enum { R_ERROR = -1, R_UNSAT, R_SAT, R_UNKNOWN };
enum { D_DECISIONS, D_PROPAGATIONS, D_CONFLICTS, D_RESTARTS, D_LEARNED,
       D_DELETED, D_MINIMIZED, N_STATS };

static const char *const stat_names[N_STATS] = {
    "decisions", "propagations", "conflicts", "restarts", "learned",
    "deleted", "minimized_literals",
};
static PyObject *stat_str[N_STATS];
static PyObject *str_proof, *str_stats, *str_add_axiom, *str_add_derived;
static PyObject *str_on_conflict, *str_note_proof_size;
static PyObject *str_exhausted_reason, *str_tick, *str_axiom, *str_proof_id;
static PyObject *str_lits;

typedef struct { double key; int32_t var; } Entry;
typedef struct { ref_t ref; lit_t blocker; } Watch;
typedef struct { Watch *w; Py_ssize_t n, cap; } WatchList;
typedef struct { int32_t var; long long pid; } Step;

typedef struct {
    PyObject_HEAD
    /* Per variable: room for vars 0 .. var_cap - 1. */
    Py_ssize_t num_vars, var_cap;
    int32_t *level;
    ref_t *reason;
    double *activity;
    unsigned char *phase, *live, *seen, *zero;
    lit_t *trail, *learnt;        /* learnt: the clause being built */
    int32_t *stack;               /* vars to unmark */
    /* Per literal: room for 2 * var_cap. */
    signed char *lit_val;
    unsigned char *member;        /* literal is in the learnt clause */
    WatchList *watches;
    Py_ssize_t trail_len, qhead;
    int32_t *trail_lim;
    Py_ssize_t num_levels, lim_cap;
    word_t *arena;
    Py_ssize_t arena_len, arena_cap, wasted;
    ref_t *clauses, *learnts;
    Py_ssize_t num_clauses, clauses_cap, num_learnts, learnts_cap;
    Entry *heap;
    Py_ssize_t heap_len, heap_cap;
    Step *steps;                  /* the chain after its first clause */
    Py_ssize_t num_steps, steps_cap;
    long long first_pid, unsat_pid, restart_base;
    double var_inc, cla_inc, var_decay, clause_decay;
    double phases[3];             /* propagate, analyze, restart seconds */
    Py_ssize_t max_learnts;
    long long delta[N_STATS];     /* not yet added to Solver.stats */
    int unsat, busy;
} Core;

/* ------------------------------------------------------------------ */
/* Storage                                                             */
/* ------------------------------------------------------------------ */

/* Grow the block whose pointer is stored at *slot to hold need items. */
static int
grow(void *slot, Py_ssize_t *cap, Py_ssize_t need, size_t item)
{
    Py_ssize_t n = *cap > 0 ? *cap : 8;
    void *data;

    while (n < need) {
        if (n > PY_SSIZE_T_MAX / 2 / (Py_ssize_t)item) {
            PyErr_NoMemory();
            return -1;
        }
        n *= 2;
    }
    memcpy(&data, slot, sizeof data);
    data = PyMem_Realloc(data, (size_t)n * item);
    if (data == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memcpy(slot, &data, sizeof data);
    *cap = n;
    return 0;
}

#define RESERVE(ptr, cap, need) \
    ((need) <= (cap) ? 0 : grow(&(ptr), &(cap), (need), sizeof(*(ptr))))

/* Room for variables 0 .. vars. */
static int
reserve_vars(Core *s, Py_ssize_t vars)
{
    Py_ssize_t cap = s->var_cap > 0 ? s->var_cap : 16, i;
    void *p;

    if (vars < s->var_cap)
        return 0;
    while (cap <= vars)
        cap *= 2;
#define GROW(field, count) \
    if ((p = PyMem_Realloc(s->field, (size_t)(count) * sizeof(*s->field))) \
            == NULL) \
        return PyErr_NoMemory(), -1; \
    s->field = p;
    GROW(level, cap) GROW(reason, cap) GROW(activity, cap) GROW(phase, cap)
    GROW(live, cap) GROW(seen, cap) GROW(zero, cap) GROW(trail, cap)
    GROW(learnt, cap) GROW(stack, cap) GROW(lit_val, 2 * cap)
    GROW(member, 2 * cap) GROW(watches, 2 * cap)
#undef GROW
    for (i = 2 * s->var_cap; i < 2 * cap; i++) {
        s->watches[i].w = NULL;
        s->watches[i].n = s->watches[i].cap = 0;
    }
    s->var_cap = cap;
    return 0;
}

static inline long long
clause_pid(const word_t *arena, ref_t ref)
{
    long long pid;

    memcpy(&pid, arena + ref - 4, sizeof pid);
    return pid;
}

static inline double
clause_act(const word_t *arena, ref_t ref)
{
    double act;

    memcpy(&act, arena + ref - 2, sizeof act);
    return act;
}

static inline void
set_clause_act(word_t *arena, ref_t ref, double act)
{
    memcpy(arena + ref - 2, &act, sizeof act);
}

/* Append a clause to the arena; its ref, or ERR. */
static ref_t
alloc_clause(Core *s, const lit_t *lits, Py_ssize_t n, int learnt,
             long long pid)
{
    Py_ssize_t need = s->arena_len + EXTRA + 1 + n;
    ref_t ref;

    if (need > INT32_MAX) {
        PyErr_SetString(PyExc_MemoryError, "the clause arena is full");
        return ERR;
    }
    if (RESERVE(s->arena, s->arena_cap, need) < 0)
        return ERR;
    ref = (ref_t)(s->arena_len + EXTRA);
    memcpy(s->arena + ref - 4, &pid, sizeof pid);
    set_clause_act(s->arena, ref, 0.0);
    s->arena[ref] = (word_t)n << 2 | (learnt ? LEARNT : 0);
    memcpy(s->arena + ref + 1, lits, (size_t)n * sizeof *lits);
    s->arena_len = need;
    return ref;
}

static inline int
watch(Core *s, lit_t lit, ref_t ref, lit_t blocker)
{
    WatchList *wl = &s->watches[lit];

    if (RESERVE(wl->w, wl->cap, wl->n + 1) < 0)
        return -1;
    wl->w[wl->n].ref = ref;
    wl->w[wl->n].blocker = blocker;
    wl->n++;
    return 0;
}

/* Remove ref's first watch from lit's list, keeping the others' order. */
static void
unwatch(Core *s, lit_t lit, ref_t ref)
{
    WatchList *wl = &s->watches[lit];
    Py_ssize_t i;

    for (i = 0; i < wl->n; i++) {
        if (wl->w[i].ref == ref) {
            memmove(wl->w + i, wl->w + i + 1,
                    (size_t)(wl->n - i - 1) * sizeof(Watch));
            wl->n--;
            return;
        }
    }
}

/* ------------------------------------------------------------------ */
/* The branching heap (heapq's order)                                  */
/* ------------------------------------------------------------------ */

static inline int
entry_lt(const Entry *a, const Entry *b)
{
    return a->key == b->key ? a->var < b->var : a->key < b->key;
}

/* heapq._siftdown: move heap[pos] up towards start. */
static void
sift_down(Entry *heap, Py_ssize_t start, Py_ssize_t pos)
{
    Entry item = heap[pos];

    while (pos > start) {
        Py_ssize_t parent = (pos - 1) >> 1;

        if (!entry_lt(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

/* heapq._siftup: move the smaller child up to a leaf, then sift the item
   there back down.  Ties take the right child. */
static void
sift_up(Entry *heap, Py_ssize_t n, Py_ssize_t pos)
{
    Py_ssize_t start = pos, child, limit = n >> 1;
    Entry item = heap[pos];

    while (pos < limit) {
        child = 2 * pos + 1;
        if (child + 1 < n && !entry_lt(&heap[child], &heap[child + 1]))
            child++;
        heap[pos] = heap[child];
        pos = child;
    }
    heap[pos] = item;
    sift_down(heap, start, pos);
}

static int
heap_push(Core *s, double key, int32_t var)
{
    if (RESERVE(s->heap, s->heap_cap, s->heap_len + 1) < 0)
        return -1;
    s->heap[s->heap_len].key = key;
    s->heap[s->heap_len].var = var;
    sift_down(s->heap, 0, s->heap_len++);
    return 0;
}

static Entry
heap_pop(Core *s)
{
    Entry last = s->heap[--s->heap_len], top;

    if (s->heap_len == 0)
        return last;
    top = s->heap[0];
    s->heap[0] = last;
    sift_up(s->heap, s->heap_len, 0);
    return top;
}

/* Rebuild the heap from the current entry of each live variable.  Only
   stale entries go, and pops follow the strict (key, var) order, so no
   decision moves. */
static void
compact_heap(Core *s)
{
    Py_ssize_t n = 0, v;

    for (v = 1; v <= s->num_vars; v++) {
        if (s->live[v]) {
            s->heap[n].key = -s->activity[v];
            s->heap[n].var = (int32_t)v;
            n++;
        }
    }
    s->heap_len = n;
    for (v = n / 2 - 1; v >= 0; v--)
        sift_up(s->heap, n, v);
}

/* ------------------------------------------------------------------ */
/* Variables and the trail                                             */
/* ------------------------------------------------------------------ */

static int
new_var(Core *s)
{
    Py_ssize_t v = s->num_vars + 1;

    if (v > MAX_VARS) {
        PyErr_SetString(PyExc_ValueError, "too many variables");
        return -1;
    }
    if (reserve_vars(s, v) < 0
            || RESERVE(s->heap, s->heap_cap, s->heap_len + 1) < 0)
        return -1;
    s->lit_val[2 * v] = s->lit_val[2 * v + 1] = 0;
    s->member[2 * v] = s->member[2 * v + 1] = 0;
    s->level[v] = 0;
    s->reason[v] = NO_REASON;
    s->activity[v] = 0.0;
    s->phase[v] = s->seen[v] = s->zero[v] = 0;
    s->live[v] = 1;
    s->num_vars = v;
    return heap_push(s, 0.0, (int32_t)v);
}

static int
ensure_vars(Core *s, Py_ssize_t count)
{
    if (count > MAX_VARS) {
        PyErr_Format(PyExc_ValueError, "%zd variables exceed the solver's "
                     "limit of %d", count, MAX_VARS);
        return -1;
    }
    while (s->num_vars < count) {
        if (new_var(s) < 0)
            return -1;
    }
    return 0;
}

static inline void
enqueue(Core *s, lit_t lit, ref_t reason)
{
    uint32_t var = lit >> 1;

    s->lit_val[lit] = 1;
    s->lit_val[lit ^ 1] = -1;
    s->level[var] = (int32_t)s->num_levels;
    s->reason[var] = reason;
    s->trail[s->trail_len++] = lit;
}

static int
new_level(Core *s)
{
    if (RESERVE(s->trail_lim, s->lim_cap, s->num_levels + 1) < 0)
        return -1;
    s->trail_lim[s->num_levels++] = (int32_t)s->trail_len;
    return 0;
}

/*
 * Unassign the trail above the level's bound, saving each phase and
 * pushing a heap entry for each variable that lacks a current one.
 * Per-variable updates commute and pops follow the strict (key, var)
 * order, so walking the trail forwards (the reference walks it
 * backwards) and skipping the reference's duplicate pushes moves no
 * decision.
 */
static int
cancel_until(Core *s, Py_ssize_t level)
{
    Py_ssize_t bound, k;

    if (s->num_levels <= level)
        return 0;
    bound = s->trail_lim[level];
    if (RESERVE(s->heap, s->heap_cap,
                s->heap_len + s->trail_len - bound) < 0)
        return -1;
    for (k = bound; k < s->trail_len; k++) {
        lit_t lit = s->trail[k];
        uint32_t var = lit >> 1;

        s->phase[var] = !(lit & 1);
        s->lit_val[lit] = s->lit_val[lit ^ 1] = 0;
        s->reason[var] = NO_REASON;
        if (!s->live[var]) {
            s->live[var] = 1;
            heap_push(s, -s->activity[var], (int32_t)var);
        }
    }
    s->trail_len = s->qhead = bound;
    s->num_levels = level;
    if (s->heap_len > 2 * s->num_vars)
        compact_heap(s);
    return 0;
}

/*
 * Pop until a current entry (its key is minus its variable's activity)
 * of an unassigned variable; each current entry popped clears its live
 * flag.  An empty heap falls back to the first unassigned variable; 0
 * means every variable is assigned.
 */
static int32_t
pick_branch_var(Core *s)
{
    Py_ssize_t v;

    while (s->heap_len > 0) {
        Entry e = heap_pop(s);

        if (-e.key == s->activity[e.var]) {
            s->live[e.var] = 0;
            if (s->lit_val[2 * e.var] == 0)
                return e.var;
        }
    }
    for (v = 1; v <= s->num_vars; v++) {
        if (s->lit_val[2 * v] == 0)
            return (int32_t)v;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* Propagation                                                         */
/* ------------------------------------------------------------------ */

/*
 * Unit propagation: a conflicting clause's ref, NO_REASON, or ERR.
 *
 * Per watch the blocker is checked first; only a stale or non-true
 * blocker touches the clause.  The fast path fires only when the blocker
 * is still one of the two watched literals and makes the slot-0/slot-1
 * swap the full path would make, so the arena, and with it every later
 * move, is the reference solver's (whose watch lists hold clauses).
 * Survivors slide down in place behind a write cursor.
 */
static ref_t
propagate(Core *s)
{
    signed char *val = s->lit_val;
    word_t *arena = s->arena;
    Py_ssize_t qstart = s->qhead;

    while (s->qhead < s->trail_len) {
        lit_t false_lit = s->trail[s->qhead++] ^ 1;
        WatchList *wl = &s->watches[false_lit];
        Watch *ws = wl->w;
        Py_ssize_t i, j = 0, n = wl->n, pos, size;

        for (i = 0; i < n; i++) {
            ref_t ref = ws[i].ref;
            lit_t blocker = ws[i].blocker, first, cand;
            word_t *c = arena + ref;
            int val0;

            if (val[blocker] == 1) {
                if (c[1] == blocker) {
                    ws[j++] = ws[i];
                    continue;
                }
                if (c[2] == blocker) {
                    /* The false literal in slot 0 swaps with slot 1, as
                       on the full path. */
                    c[2] = c[1];
                    c[1] = blocker;
                    ws[j++] = ws[i];
                    continue;
                }
            }
            first = c[1];
            if (first == false_lit) {
                first = c[2];
                c[1] = first;
                c[2] = false_lit;
            }
            val0 = val[first];
            if (val0 != 1) {
                size = c[0] >> 2;
                for (pos = 3; pos <= size; pos++) {
                    cand = c[pos];
                    if (val[cand] != -1)
                        break;
                }
                if (pos <= size) {
                    /* Move the watch from the false literal to cand. */
                    if (watch(s, cand, ref, first) < 0) {
                        while (i < n)
                            ws[j++] = ws[i++];
                        wl->n = j;
                        s->qhead--;
                        s->delta[D_PROPAGATIONS] += s->qhead - qstart;
                        return ERR;
                    }
                    c[2] = cand;
                    c[pos] = false_lit;
                    continue;
                }
            }
            ws[j].ref = ref;
            ws[j].blocker = first;
            j++;
            if (val0 == -1) {
                while (++i < n)
                    ws[j++] = ws[i];
                wl->n = j;
                s->delta[D_PROPAGATIONS] += s->qhead - qstart;
                s->qhead = s->trail_len;
                return ref;
            }
            if (val0 == 0)
                enqueue(s, first, ref);
        }
        wl->n = j;
    }
    s->delta[D_PROPAGATIONS] += s->qhead - qstart;
    return NO_REASON;
}

/* ------------------------------------------------------------------ */
/* Proof logging                                                       */
/* ------------------------------------------------------------------ */

/* Raise repro.proof.store.ProofError(format % value). */
static void
proof_error(const char *format, long long value)
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

/* The proof id of the clause at ref, which a logged chain needs. */
static int
logged_pid(const word_t *arena, ref_t ref, long long *pid)
{
    *pid = clause_pid(arena, ref);
    if (*pid < 0) {
        proof_error("clause %lld has no proof id", ref);
        return -1;
    }
    return 0;
}

static int
chain_start(Core *s, ref_t ref)
{
    s->num_steps = 0;
    return logged_pid(s->arena, ref, &s->first_pid);
}

static int
chain_step(Core *s, uint32_t var, ref_t ref)
{
    long long pid;

    if (logged_pid(s->arena, ref, &pid) < 0
            || RESERVE(s->steps, s->steps_cap, s->num_steps + 1) < 0)
        return -1;
    s->steps[s->num_steps].var = (int32_t)var;
    s->steps[s->num_steps].pid = pid;
    s->num_steps++;
    return 0;
}

/* *out = a proof id Python handed in: a non-negative int. */
static int
pid_value(PyObject *obj, long long *out)
{
    int overflow;

    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "proof id is %.100s, not int",
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    *out = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    if (overflow || *out < 0) {
        PyErr_Format(PyExc_ValueError, "proof id %R is not a clause id",
                     obj);
        return -1;
    }
    return 0;
}

/*
 * A new reference to the int of proof id pid.  ids, a list the Solver
 * owns (or NULL), keeps one int per id, so that the chain steps naming a
 * clause share one object, as they shared the id the store returned.
 */
static PyObject *
id_object(PyObject *ids, long long pid)
{
    PyObject *item;

    if (ids != NULL && pid < PyList_GET_SIZE(ids)) {
        item = PyList_GET_ITEM(ids, pid);
        if (PyLong_CheckExact(item)) {
            Py_INCREF(item);
            return item;
        }
    }
    if ((item = PyLong_FromLongLong(pid)) == NULL || ids == NULL)
        return item;
    while (PyList_GET_SIZE(ids) <= pid) {
        if (PyList_Append(ids, Py_None) < 0) {
            Py_DECREF(item);
            return NULL;
        }
    }
    Py_INCREF(item);
    if (PyList_SetItem(ids, (Py_ssize_t)pid, item) < 0) {
        Py_DECREF(item);
        return NULL;
    }
    return item;
}

/* The proof id of the chain just built: its one clause's, or
   proof.add_derived(lits, chain)'s. */
static int
log_chain(Core *s, PyObject *proof, PyObject *ids, PyObject *lits,
          long long *pid)
{
    PyObject *chain, *item, *id;
    Py_ssize_t k;
    int status;

    if (s->num_steps == 0) {
        *pid = s->first_pid;
        return 0;
    }
    if ((chain = PyList_New(s->num_steps + 1)) == NULL)
        return -1;
    if ((item = id_object(ids, s->first_pid)) == NULL)
        goto fail;
    PyList_SET_ITEM(chain, 0, item);
    for (k = 0; k < s->num_steps; k++) {
        if ((item = PyTuple_New(2)) == NULL)
            goto fail;
        PyList_SET_ITEM(chain, k + 1, item);
        if ((id = PyLong_FromLong(s->steps[k].var)) == NULL)
            goto fail;
        PyTuple_SET_ITEM(item, 0, id);
        if ((id = id_object(ids, s->steps[k].pid)) == NULL)
            goto fail;
        PyTuple_SET_ITEM(item, 1, id);
    }
    id = PyObject_CallMethodObjArgs(proof, str_add_derived, lits, chain,
                                    NULL);
    Py_DECREF(chain);
    if (id == NULL)
        return -1;
    status = pid_value(id, pid);
    Py_DECREF(id);
    return status;

fail:
    Py_DECREF(chain);
    return -1;
}

/* A new list of the DIMACS literals lits[0 .. n). */
static PyObject *
dimacs_list(const lit_t *lits, Py_ssize_t n)
{
    PyObject *list = PyList_New(n), *item;
    Py_ssize_t k;

    for (k = 0; list != NULL && k < n; k++) {
        if ((item = PyLong_FromLongLong(DIMACS(lits[k]))) == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, k, item);
    }
    return list;
}

/* ------------------------------------------------------------------ */
/* Final-conflict analysis                                             */
/* ------------------------------------------------------------------ */

static void
clear_marks(Core *s, Py_ssize_t marked)
{
    while (marked > 0)
        s->seen[s->stack[--marked]] = 0;
}

/*
 * Resolve away every trail-assigned literal of the clause at start that
 * is false, walking the whole trail down as conflict analysis walks one
 * level.  The negation of each decision reached stays in the clause
 * (s->learnt[0 .. *kept)); every decision must be one of the nassume
 * assumptions, else ProofError.  The chain goes to s->steps when
 * logging.  A true literal of the start clause (the one it propagated)
 * is not resolved.
 */
static int
resolve_out(Core *s, ref_t start, const lit_t *assume, Py_ssize_t nassume,
            int logging, Py_ssize_t *kept)
{
    const word_t *arena = s->arena;
    Py_ssize_t marked = 0, pos, p, k;

    *kept = 0;
    if (logging && chain_start(s, start) < 0)
        return -1;
    for (p = start + 1; p <= start + SIZE(arena, start); p++) {
        uint32_t var = arena[p] >> 1;

        if (s->lit_val[arena[p]] == -1 && !s->seen[var]) {
            s->seen[var] = 1;
            s->stack[marked++] = (int32_t)var;
        }
    }
    for (pos = s->trail_len - 1; pos >= 0; pos--) {
        lit_t lit = s->trail[pos];
        uint32_t var = lit >> 1;
        ref_t ref;

        if (!s->seen[var])
            continue;
        s->seen[var] = 0;
        ref = s->reason[var];
        if (ref == NO_REASON) {
            for (k = 0; k < nassume && assume[k] != lit; k++)
                ;
            if (k == nassume) {
                clear_marks(s, marked);
                proof_error("final analysis reached non-assumption "
                            "decision %lld", DIMACS(lit));
                return -1;
            }
            s->learnt[(*kept)++] = lit ^ 1;
            continue;
        }
        if (logging && chain_step(s, var, ref) < 0) {
            clear_marks(s, marked);
            return -1;
        }
        for (p = ref + 1; p <= ref + SIZE(arena, ref); p++) {
            uint32_t lvar = arena[p] >> 1;

            if (lvar != var && !s->seen[lvar]) {
                s->seen[lvar] = 1;
                s->stack[marked++] = (int32_t)lvar;
            }
        }
    }
    clear_marks(s, marked);
    return 0;
}

/* A level-0 conflict derives the empty clause. */
static int
level0_refutation(Core *s, ref_t conflict, PyObject *proof, PyObject *ids)
{
    Py_ssize_t kept;
    PyObject *empty;
    int status;

    s->unsat = 1;
    if (proof == Py_None)
        return 0;
    if (resolve_out(s, conflict, NULL, 0, 1, &kept) < 0)
        return -1;
    if ((empty = PyTuple_New(0)) == NULL)
        return -1;
    status = log_chain(s, proof, ids, empty, &s->unsat_pid);
    Py_DECREF(empty);
    return status;
}

static int
cmp_dimacs(const void *a, const void *b)
{
    long long x = *(const long long *)a, y = *(const long long *)b;

    return (x > y) - (x < y);
}

/*
 * The final conflict clause when the assumption cand is false: the
 * negations of the assumptions responsible, sorted, as a tuple in
 * *final, with its proof id (or None) in *pid.
 */
static int
analyze_final(Core *s, lit_t cand, const lit_t *assume, Py_ssize_t nassume,
              PyObject *proof, PyObject *ids, PyObject **final,
              PyObject **pid)
{
    uint32_t var = cand >> 1;
    long long *lits;
    long long id;
    Py_ssize_t kept, n = 0, k;
    PyObject *list = NULL;
    int status = -1;

    if (s->reason[var] == NO_REASON) {
        /* The opposite literal is itself an assumption: no resolution
           clause exists (it would be a tautology). */
        proof_error("directly contradictory assumptions on variable %lld",
                    var);
        return -1;
    }
    if (resolve_out(s, s->reason[var], assume, nassume, proof != Py_None,
                    &kept) < 0)
        return -1;
    /* The reason propagated -cand, which stays in the clause. */
    if ((lits = PyMem_Malloc((size_t)(kept + 1) * sizeof *lits)) == NULL)
        return PyErr_NoMemory(), -1;
    for (k = 0; k < kept; k++)
        lits[k] = DIMACS(s->learnt[k]);
    lits[kept] = DIMACS(cand ^ 1);
    qsort(lits, (size_t)(kept + 1), sizeof *lits, cmp_dimacs);
    for (k = 0; k <= kept; k++) {
        if (n == 0 || lits[n - 1] != lits[k])
            lits[n++] = lits[k];
    }
    if ((list = PyList_New(n)) == NULL)
        goto done;
    for (k = 0; k < n; k++) {
        PyObject *item = PyLong_FromLongLong(lits[k]);

        if (item == NULL)
            goto done;
        PyList_SET_ITEM(list, k, item);
    }
    if (proof == Py_None) {
        Py_INCREF(Py_None);
        *pid = Py_None;
    }
    else if (log_chain(s, proof, ids, list, &id) < 0
             || (*pid = PyLong_FromLongLong(id)) == NULL)
        goto done;
    if ((*final = PyList_AsTuple(list)) == NULL) {
        Py_CLEAR(*pid);
        goto done;
    }
    status = 0;

done:
    Py_XDECREF(list);
    PyMem_Free(lits);
    return status;
}

/* ------------------------------------------------------------------ */
/* Conflict analysis                                                   */
/* ------------------------------------------------------------------ */

/* Scale every activity and var_inc by 1e-100.  Every heap entry goes
   stale except those of zero-activity variables, so the live flags are
   recomputed from one scan of the heap. */
static void
rescale_activity(Core *s)
{
    Py_ssize_t v;

    for (v = 1; v <= s->num_vars; v++)
        s->activity[v] *= 1e-100;
    s->var_inc *= 1e-100;
    memset(s->live, 0, (size_t)(s->num_vars + 1));
    for (v = 0; v < s->heap_len; v++) {
        if (-s->heap[v].key == s->activity[s->heap[v].var])
            s->live[s->heap[v].var] = 1;
    }
}

/* A learnt clause's activity += cla_inc; past 1e20 every learnt clause's
   activity and cla_inc are scaled by 1e-20. */
static void
bump_clause(Core *s, ref_t ref)
{
    double act = clause_act(s->arena, ref) + s->cla_inc;
    Py_ssize_t k;

    set_clause_act(s->arena, ref, act);
    if (act <= 1e20)
        return;
    for (k = 0; k < s->num_learnts; k++) {
        ref_t l = s->learnts[k];

        set_clause_act(s->arena, l, clause_act(s->arena, l) * 1e-20);
    }
    s->cla_inc *= 1e-20;
}

static inline void
mark_zero(Core *s, uint32_t var, Py_ssize_t *nzero)
{
    if (!s->zero[var]) {
        s->zero[var] = 1;
        s->stack[(*nzero)++] = (int32_t)var;
    }
}

/*
 * Local learnt-clause minimization (self-subsuming resolution).  A
 * literal other than the asserting one is redundant when every other
 * literal of its variable's reason is in the learnt clause or false at
 * level 0.  Each removal adds one chain step, and the level-0 literals
 * it brings in are marked for elimination.
 */
static int
minimize(Core *s, Py_ssize_t *n, int logging, Py_ssize_t *nzero)
{
    const word_t *arena = s->arena;
    Py_ssize_t k, p, size;
    int changed = 1;

    while (changed) {
        changed = 0;
        for (k = *n - 1; k > 0; k--) {
            lit_t lit = s->learnt[k];
            uint32_t var = lit >> 1;
            ref_t ref = s->reason[var];

            if (ref == NO_REASON)
                continue;
            size = SIZE(arena, ref);
            for (p = ref + 1; p <= ref + size; p++) {
                lit_t l = arena[p];

                if ((l >> 1) != var && !s->member[l] && s->level[l >> 1])
                    break;
            }
            if (p <= ref + size)
                continue;
            s->member[lit] = 0;
            memmove(s->learnt + k, s->learnt + k + 1,
                    (size_t)(*n - k - 1) * sizeof(lit_t));
            (*n)--;
            s->delta[D_MINIMIZED]++;
            s->seen[var] = 0;
            if (logging && chain_step(s, var, ref) < 0)
                return -1;
            for (p = ref + 1; p <= ref + size; p++) {
                lit_t l = arena[p];

                if ((l >> 1) != var && !s->member[l] && !s->level[l >> 1])
                    mark_zero(s, l >> 1, nzero);
            }
            changed = 1;
        }
    }
    return 0;
}

/*
 * Chain steps resolving away the level-0 literals: walk the level-0
 * trail segment down, resolving each marked variable with its reason and
 * marking the reason's other variables.  Walking down puts a variable's
 * step after every step that could have brought its literal in.
 */
static int
eliminate_level0(Core *s, Py_ssize_t *nzero)
{
    const word_t *arena = s->arena;
    Py_ssize_t bound = s->num_levels ? s->trail_lim[0] : s->trail_len;
    Py_ssize_t pos, p;

    for (pos = bound - 1; pos >= 0; pos--) {
        uint32_t var = s->trail[pos] >> 1;
        ref_t ref;

        if (!s->zero[var])
            continue;
        ref = s->reason[var];
        if (ref == NO_REASON) {
            proof_error("level-0 variable %lld has no reason", var);
            return -1;
        }
        if (chain_step(s, var, ref) < 0)
            return -1;
        for (p = ref + 1; p <= ref + SIZE(arena, ref); p++) {
            if ((arena[p] >> 1) != var)
                mark_zero(s, arena[p] >> 1, nzero);
        }
    }
    return 0;
}

/*
 * First-UIP conflict analysis.  The learnt clause goes to s->learnt[0 ..
 * *n): the asserting literal first, the highest other level second; its
 * chain to s->steps when logging.  Level-0 literals are dropped from the
 * clause and resolved away at the end of the chain, so the logged
 * derivation stays exact.
 */
static int
analyze(Core *s, ref_t conflict, int logging, Py_ssize_t *n,
        Py_ssize_t *backtrack)
{
    const word_t *arena = s->arena;
    Py_ssize_t cur = s->num_levels, pos = s->trail_len - 1, nzero = 0;
    Py_ssize_t path = 0, p, k, best;
    ref_t ref = conflict;
    lit_t uip = 0;

    *n = 1;  /* s->learnt[0] is the asserting literal, found last */
    if (logging && chain_start(s, conflict) < 0)
        goto fail;
    for (;;) {
        if (arena[ref] & LEARNT)
            bump_clause(s, ref);
        for (p = ref + (ref == conflict ? 1 : 2);
                p <= ref + SIZE(arena, ref); p++) {
            lit_t lit = arena[p];
            uint32_t var = lit >> 1;
            double act;

            if (s->seen[var])
                continue;
            if (s->level[var] == 0) {
                mark_zero(s, var, &nzero);
                continue;
            }
            s->seen[var] = 1;
            act = s->activity[var] + s->var_inc;
            s->activity[var] = act;
            if (act > 1e100) {
                rescale_activity(s);
                act = s->activity[var];
            }
            if (heap_push(s, -act, (int32_t)var) < 0)
                goto fail;
            s->live[var] = 1;
            if (s->level[var] >= cur)
                path++;
            else
                s->learnt[(*n)++] = lit;
        }
        while (!s->seen[s->trail[pos] >> 1])
            pos--;
        uip = s->trail[pos--];
        s->seen[uip >> 1] = 0;
        if (--path == 0)
            break;
        ref = s->reason[uip >> 1];
        if (logging && chain_step(s, uip >> 1, ref) < 0)
            goto fail;
    }
    s->learnt[0] = uip ^ 1;
    for (k = 0; k < *n; k++)
        s->member[s->learnt[k]] = 1;
    if (minimize(s, n, logging, &nzero) < 0
            || (logging && nzero && eliminate_level0(s, &nzero) < 0))
        goto fail;
    for (k = 0; k < *n; k++) {
        s->seen[s->learnt[k] >> 1] = 0;
        s->member[s->learnt[k]] = 0;
    }
    while (nzero > 0)
        s->zero[s->stack[--nzero]] = 0;
    *backtrack = 0;
    if (*n > 1) {
        /* Move the literal of the second-highest level to slot 1. */
        best = 1;
        for (k = 2; k < *n; k++) {
            if (s->level[s->learnt[k] >> 1] > s->level[s->learnt[best] >> 1])
                best = k;
        }
        uip = s->learnt[1];
        s->learnt[1] = s->learnt[best];
        s->learnt[best] = uip;
        *backtrack = s->level[s->learnt[1] >> 1];
    }
    s->var_inc /= s->var_decay;
    s->cla_inc /= s->clause_decay;
    return 0;

fail:
    /* Rare (an error was raised): clear every mark. */
    memset(s->seen, 0, (size_t)(s->num_vars + 1));
    memset(s->zero, 0, (size_t)(s->num_vars + 1));
    memset(s->member, 0, (size_t)(2 * s->num_vars + 2));
    return -1;
}

/* ------------------------------------------------------------------ */
/* Learnt clauses                                                      */
/* ------------------------------------------------------------------ */

/* Log, store, watch and assert the clause analysis left in s->learnt. */
static int
record_learnt(Core *s, Py_ssize_t n, PyObject *proof, PyObject *ids)
{
    long long pid = NO_PROOF;
    PyObject *lits;
    ref_t ref;
    int status;

    if (proof != Py_None) {
        if ((lits = dimacs_list(s->learnt, n)) == NULL)
            return -1;
        status = log_chain(s, proof, ids, lits, &pid);
        Py_DECREF(lits);
        if (status < 0)
            return -1;
    }
    if (n >= 2 && (RESERVE(s->learnts, s->learnts_cap, s->num_learnts + 1)
                   < 0
                   || RESERVE(s->watches[s->learnt[0]].w,
                              s->watches[s->learnt[0]].cap,
                              s->watches[s->learnt[0]].n + 1) < 0
                   || RESERVE(s->watches[s->learnt[1]].w,
                              s->watches[s->learnt[1]].cap,
                              s->watches[s->learnt[1]].n + 1) < 0))
        return -1;
    if ((ref = alloc_clause(s, s->learnt, n, 1, pid)) == ERR)
        return -1;
    s->delta[D_LEARNED]++;
    if (n >= 2) {
        s->learnts[s->num_learnts++] = ref;
        bump_clause(s, ref);
        watch(s, s->learnt[0], ref, s->learnt[1]);
        watch(s, s->learnt[1], ref, s->learnt[0]);
    }
    enqueue(s, s->learnt[0], ref);
    return 0;
}

typedef struct { double act; Py_ssize_t index; } Ranked;

static int
cmp_ranked(const void *a, const void *b)
{
    const Ranked *x = a, *y = b;

    if (x->act != y->act)
        return x->act < y->act ? -1 : 1;
    return (x->index > y->index) - (x->index < y->index);
}

/*
 * Rebuild the arena without abandoned words.  Live clauses move in the
 * order of the clause list, the learnt list and the reason table (unit
 * learnts live only there); each leaves its new ref in its old second
 * word, and every ref is remapped with every order kept, so compaction
 * moves no decision.
 */
static int
compact_arena(Core *s)
{
    word_t *old = s->arena, *fresh;
    Py_ssize_t len = 0, cap = s->arena_len - s->wasted, k, n;
    ref_t *refs[2] = {s->clauses, s->learnts}, ref;
    Py_ssize_t counts[2] = {s->num_clauses, s->num_learnts};
    int list;

    if ((fresh = PyMem_Malloc((size_t)(cap > 0 ? cap : 1)
                              * sizeof *fresh)) == NULL)
        return PyErr_NoMemory(), -1;
#define MOVE(r) \
    if (!(old[r] & MARK)) { \
        n = EXTRA + 1 + SIZE(old, r); \
        memcpy(fresh + len, old + (r) - EXTRA, (size_t)n * sizeof *old); \
        old[r] |= MARK; \
        old[(r) + 1] = (word_t)(len + EXTRA); \
        len += n; \
    }
    for (list = 0; list < 2; list++) {
        for (k = 0; k < counts[list]; k++) {
            ref = refs[list][k];
            MOVE(ref)
        }
    }
    for (k = 1; k <= s->num_vars; k++) {
        if ((ref = s->reason[k]) != NO_REASON) {
            MOVE(ref)
        }
    }
#undef MOVE
#define REMAP(r) ((r) = (ref_t)old[(r) + 1])
    for (list = 0; list < 2; list++) {
        for (k = 0; k < counts[list]; k++)
            REMAP(refs[list][k]);
    }
    for (k = 1; k <= s->num_vars; k++) {
        if (s->reason[k] != NO_REASON)
            REMAP(s->reason[k]);
    }
    for (k = 0; k < 2 * (s->num_vars + 1); k++) {
        Py_ssize_t i;

        for (i = 0; i < s->watches[k].n; i++)
            REMAP(s->watches[k].w[i].ref);
    }
#undef REMAP
    PyMem_Free(old);
    s->arena = fresh;
    s->arena_len = len;
    s->arena_cap = cap > 0 ? cap : 1;
    s->wasted = 0;
    return 0;
}

/* Remove roughly half of the inactive, unlocked learnt clauses. */
static int
reduce_db(Core *s)
{
    word_t *arena = s->arena;
    Py_ssize_t n = s->num_learnts, to_delete = n / 2, deleted = 0, k, kept;
    Ranked *order;
    Py_ssize_t v;

    if ((order = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof *order))
            == NULL)
        return PyErr_NoMemory(), -1;
    for (k = 0; k < n; k++) {
        order[k].act = clause_act(arena, s->learnts[k]);
        order[k].index = k;
    }
    qsort(order, (size_t)n, sizeof *order, cmp_ranked);
    for (k = 0; k < n; k++)
        order[k].index = s->learnts[order[k].index];
    /* Lock the learnt reasons that could be deleted. */
    for (v = 1; v <= s->num_vars; v++) {
        ref_t ref = s->reason[v];

        if (ref != NO_REASON && (arena[ref] & LEARNT) && SIZE(arena, ref) > 2)
            arena[ref] |= MARK;
    }
    kept = 0;
    for (k = 0; k < n; k++) {
        ref_t ref = (ref_t)order[k].index;

        if (deleted < to_delete && !(arena[ref] & MARK)
                && SIZE(arena, ref) > 2) {
            unwatch(s, arena[ref + 1], ref);
            unwatch(s, arena[ref + 2], ref);
            s->wasted += EXTRA + 1 + SIZE(arena, ref);
            deleted++;
        }
        else {
            arena[ref] &= ~MARK;
            s->learnts[kept++] = ref;
        }
    }
    PyMem_Free(order);
    s->num_learnts = kept;
    s->delta[D_DELETED] += deleted;
    if (s->wasted * 2 > s->arena_len)
        return compact_arena(s);
    return 0;
}

/* ------------------------------------------------------------------ */
/* Calling back into Python                                            */
/* ------------------------------------------------------------------ */

/* Add the counters not yet reported to stats (Solver.stats). */
static int
flush_stats(Core *s, PyObject *stats)
{
    int k;

    for (k = 0; k < N_STATS; k++) {
        PyObject *old, *step, *sum;
        int status;

        if (s->delta[k] == 0)
            continue;
        if ((old = PyObject_GetAttr(stats, stat_str[k])) == NULL)
            return -1;
        step = PyLong_FromLongLong(s->delta[k]);
        sum = step != NULL ? PyNumber_Add(old, step) : NULL;
        Py_DECREF(old);
        Py_XDECREF(step);
        if (sum == NULL)
            return -1;
        status = PyObject_SetAttr(stats, stat_str[k], sum);
        Py_DECREF(sum);
        if (status < 0)
            return -1;
        s->delta[k] = 0;
    }
    return 0;
}

/* flush_stats into self.stats, keeping any exception already raised. */
static int
flush_self_stats(Core *s)
{
    PyObject *type, *value, *traceback, *stats;
    int status = -1, failed = PyErr_Occurred() != NULL, k;

    for (k = 0; k < N_STATS && s->delta[k] == 0; k++)
        ;
    if (k == N_STATS)
        return failed ? -1 : 0;
    PyErr_Fetch(&type, &value, &traceback);
    stats = PyObject_GetAttr((PyObject *)s, str_stats);
    if (stats != NULL) {
        status = flush_stats(s, stats);
        Py_DECREF(stats);
    }
    if (failed) {
        PyErr_Clear();
        PyErr_Restore(type, value, traceback);
        return -1;
    }
    return status;
}

static int
call_method(PyObject *obj, PyObject *name, PyObject *arg)
{
    PyObject *result = PyObject_CallMethodObjArgs(obj, name, arg, NULL);

    Py_XDECREF(result);
    return result == NULL ? -1 : 0;
}

/* 1 when budget.exhausted_reason() is not None, 0 when it is, -1. */
static int
exhausted(PyObject *budget)
{
    PyObject *reason = PyObject_CallMethodObjArgs(
        budget, str_exhausted_reason, NULL);

    if (reason == NULL)
        return -1;
    Py_DECREF(reason);
    return reason != Py_None;
}

static int
read_clock(PyObject *clock, double *t)
{
    PyObject *now = PyObject_CallNoArgs(clock);

    if (now == NULL)
        return -1;
    *t = PyFloat_AsDouble(now);
    Py_DECREF(now);
    return *t == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* ------------------------------------------------------------------ */
/* The solve call                                                      */
/* ------------------------------------------------------------------ */

static long long
luby(long long index)
{
    long long x = index - 1, size = 1;
    int seq = 0;

    while (size < x + 1) {
        seq++;
        size = 2 * size + 1;
    }
    while (size - 1 != x) {
        size = (size - 1) >> 1;
        seq--;
        x %= size;
    }
    return 1LL << seq;
}

/* What one solve call takes and gives back. */
typedef struct {
    PyObject *proof, *stats, *budget, *progress, *clock, *ids;
    const lit_t *assume;
    Py_ssize_t nassume;
    long long max_conflicts;
    int capped;
    double phases[3];
    PyObject *model, *final, *pid;
} Call;

static int
tick(Core *s, Call *c)
{
    if (flush_stats(s, c->stats) < 0)
        return -1;
    return call_method(c->progress, str_tick, c->stats);
}

/* A new list of each variable's value in the model (index 0 included). */
static PyObject *
model_list(Core *s)
{
    PyObject *model = PyList_New(s->num_vars + 1), *item;
    Py_ssize_t v;

    for (v = 0; model != NULL && v <= s->num_vars; v++) {
        if ((item = PyLong_FromLong(s->lit_val[2 * v])) == NULL)
            Py_CLEAR(model);
        else
            PyList_SET_ITEM(model, v, item);
    }
    return model;
}

/* The CDCL search loop, as ReferenceSolver._solve_loop. */
static int
search(Core *s, Call *c)
{
    int logging = c->proof != Py_None, done;
    long long restart_index = 1, until_restart, total = 0;
    Py_ssize_t since_check = 0, n, backtrack;
    double t0 = 0.0, t1 = 0.0;
    ref_t conflict;
    lit_t next;
    int32_t var;

    if (cancel_until(s, 0) < 0 || (conflict = propagate(s)) == ERR)
        return R_ERROR;
    if (conflict != NO_REASON) {
        if (level0_refutation(s, conflict, c->proof, c->ids) < 0)
            return R_ERROR;
        return R_UNSAT;
    }
    s->max_learnts = s->num_clauses / 3 > 100 ? s->num_clauses / 3 : 100;
    until_restart = s->restart_base * luby(restart_index);
    for (;;) {
        if (c->clock != NULL) {
            if (read_clock(c->clock, &t0) < 0)
                return R_ERROR;
            conflict = propagate(s);
            if (conflict == ERR || read_clock(c->clock, &t1) < 0)
                return R_ERROR;
            c->phases[0] += t1 - t0;
        }
        else if ((conflict = propagate(s)) == ERR)
            return R_ERROR;
        if (conflict != NO_REASON) {
            s->delta[D_CONFLICTS]++;
            total++;
            until_restart--;
            if (s->num_levels == 0) {
                if (level0_refutation(s, conflict, c->proof, c->ids) < 0)
                    return R_ERROR;
                return R_UNSAT;
            }
            if (c->clock != NULL && read_clock(c->clock, &t0) < 0)
                return R_ERROR;
            if (analyze(s, conflict, logging, &n, &backtrack) < 0)
                return R_ERROR;
            if (c->clock != NULL) {
                if (read_clock(c->clock, &t1) < 0)
                    return R_ERROR;
                c->phases[1] += t1 - t0;
            }
            if (cancel_until(s, backtrack) < 0
                    || record_learnt(s, n, c->proof, c->ids) < 0)
                return R_ERROR;
            if (s->num_learnts > s->max_learnts) {
                if (reduce_db(s) < 0)
                    return R_ERROR;
                s->max_learnts = (Py_ssize_t)((double)s->max_learnts * 1.5);
            }
            if (c->budget != Py_None) {
                PyObject *size = NULL;

                if (call_method(c->budget, str_on_conflict, NULL) < 0)
                    return R_ERROR;
                if (logging) {
                    Py_ssize_t len = PyObject_Size(c->proof);

                    if (len < 0 || (size = PyLong_FromSsize_t(len)) == NULL)
                        return R_ERROR;
                    done = call_method(c->budget, str_note_proof_size, size);
                    Py_DECREF(size);
                    if (done < 0)
                        return R_ERROR;
                }
                if ((done = exhausted(c->budget)) != 0)
                    return done < 0 || cancel_until(s, 0) < 0
                        ? R_ERROR : R_UNKNOWN;
            }
            if (c->progress != Py_None && tick(s, c) < 0)
                return R_ERROR;
            if (c->capped && total >= c->max_conflicts)
                return cancel_until(s, 0) < 0 ? R_ERROR : R_UNKNOWN;
            continue;
        }
        if (until_restart <= 0) {
            s->delta[D_RESTARTS]++;
            restart_index++;
            until_restart = s->restart_base * luby(restart_index);
            if (c->clock != NULL && read_clock(c->clock, &t0) < 0)
                return R_ERROR;
            if (cancel_until(s, 0) < 0)
                return R_ERROR;
            if (c->clock != NULL) {
                if (read_clock(c->clock, &t1) < 0)
                    return R_ERROR;
                c->phases[2] += t1 - t0;
            }
            continue;
        }
        /* Place pending assumptions as pseudo-decisions. */
        next = 0;
        while (s->num_levels < c->nassume) {
            lit_t cand = c->assume[s->num_levels];

            if (s->lit_val[cand] == 1) {
                if (new_level(s) < 0)  /* already true: a dummy level */
                    return R_ERROR;
                continue;
            }
            if (s->lit_val[cand] == -1) {
                if (analyze_final(s, cand, c->assume, c->nassume, c->proof,
                                  c->ids, &c->final, &c->pid) < 0)
                    return R_ERROR;
                return cancel_until(s, 0) < 0 ? R_ERROR : R_UNSAT;
            }
            next = cand;
            break;
        }
        if (next == 0) {
            if ((var = pick_branch_var(s)) == 0) {
                if ((c->model = model_list(s)) == NULL)
                    return R_ERROR;
                return cancel_until(s, 0) < 0 ? R_ERROR : R_SAT;
            }
            next = (lit_t)var << 1 | !s->phase[var];
        }
        s->delta[D_DECISIONS]++;
        if (++since_check >= 256
                && (c->budget != Py_None || c->progress != Py_None)) {
            since_check = 0;
            if (c->progress != Py_None && tick(s, c) < 0)
                return R_ERROR;
            if (c->budget != Py_None && (done = exhausted(c->budget)) != 0)
                return done < 0 || cancel_until(s, 0) < 0
                    ? R_ERROR : R_UNKNOWN;
        }
        if (new_level(s) < 0)
            return R_ERROR;
        enqueue(s, next, NO_REASON);
    }
}

/* ------------------------------------------------------------------ */
/* Checks at the boundary                                              */
/* ------------------------------------------------------------------ */

static int
not_busy(Core *s)
{
    if (s->busy) {
        PyErr_SetString(PyExc_RuntimeError, "the solver is busy: a "
                        "callback cannot change its state");
        return -1;
    }
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

/* *out = the int obj, which must lie in [low, high]. */
static int
int_in(PyObject *obj, long long low, long long high, PyObject *error,
       const char *what, long long *out)
{
    int overflow;

    if (!PyLong_Check(obj)) {
        PyErr_Format(PyExc_TypeError, "%s is %.100s, not int", what,
                     Py_TYPE(obj)->tp_name);
        return -1;
    }
    *out = PyLong_AsLongLongAndOverflow(obj, &overflow);
    if (*out == -1 && PyErr_Occurred())
        return -1;
    if (overflow || *out < low || *out > high) {
        PyErr_Format(error, "%s %R is out of range", what, obj);
        return -1;
    }
    return 0;
}

/* *out = the internal literal of the DIMACS literal obj, whose variable
   must exist. */
static int
lit_arg(Core *s, PyObject *obj, lit_t *out)
{
    long long lit;

    if (int_in(obj, -(long long)s->num_vars, s->num_vars, PyExc_IndexError,
               "literal", &lit) < 0)
        return -1;
    if (lit == 0) {
        PyErr_SetString(PyExc_ValueError, "literal 0 is not allowed");
        return -1;
    }
    *out = lit > 0 ? (lit_t)lit << 1 : (lit_t)(-lit) << 1 | 1;
    return 0;
}

/* *out = the ref obj, whose clause must lie inside the arena. */
static int
ref_arg(Core *s, PyObject *obj, ref_t *out)
{
    long long ref;

    if (int_in(obj, EXTRA, s->arena_len - 1, PyExc_IndexError,
               "clause ref", &ref) < 0)
        return -1;
    if (ref + 1 + SIZE(s->arena, ref) > s->arena_len) {
        PyErr_Format(PyExc_IndexError, "clause ref %lld is not a clause",
                     ref);
        return -1;
    }
    *out = (ref_t)ref;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Methods                                                             */
/* ------------------------------------------------------------------ */

static PyObject *
core_new_var(Core *s, PyObject *unused)
{
    (void)unused;
    if (not_busy(s) < 0 || new_var(s) < 0)
        return NULL;
    return PyLong_FromSsize_t(s->num_vars);
}

static PyObject *
core_ensure_vars(Core *s, PyObject *arg)
{
    long long count;

    if (not_busy(s) < 0
            || int_in(arg, LLONG_MIN, LLONG_MAX, PyExc_ValueError,
                      "variable count", &count) < 0)
        return NULL;
    if (ensure_vars(s, count > MAX_VARS ? (Py_ssize_t)MAX_VARS + 1
                                        : (Py_ssize_t)count) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
core_value(Core *s, PyObject *arg)
{
    lit_t lit;

    if (lit_arg(s, arg, &lit) < 0)
        return NULL;
    return PyLong_FromLong(s->lit_val[lit]);
}

static PyObject *
core_decision_level(Core *s, PyObject *unused)
{
    (void)unused;
    return PyLong_FromSsize_t(s->num_levels);
}

static PyObject *
core_cancel_until(Core *s, PyObject *arg)
{
    long long level;

    if (not_busy(s) < 0
            || int_in(arg, 0, LLONG_MAX, PyExc_ValueError, "level",
                      &level) < 0)
        return NULL;
    if (level < s->num_levels && cancel_until(s, (Py_ssize_t)level) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
core_new_decision_level(Core *s, PyObject *unused)
{
    (void)unused;
    if (not_busy(s) < 0 || new_level(s) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
core_enqueue(Core *s, PyObject *const *args, Py_ssize_t nargs)
{
    lit_t lit;

    if (check_nargs("_enqueue", nargs, 2) < 0 || not_busy(s) < 0
            || lit_arg(s, args[0], &lit) < 0)
        return NULL;
    if (args[1] != Py_None) {
        PyErr_SetString(PyExc_ValueError,
                        "_enqueue places decisions only: reason must be None");
        return NULL;
    }
    if (s->lit_val[lit] != 0) {
        PyErr_Format(PyExc_ValueError, "variable %lld is already assigned",
                     (long long)(lit >> 1));
        return NULL;
    }
    enqueue(s, lit, NO_REASON);
    Py_RETURN_NONE;
}

static PyObject *
core_propagate(Core *s, PyObject *unused)
{
    ref_t conflict;

    (void)unused;
    if (not_busy(s) < 0)
        return NULL;
    conflict = propagate(s);
    if (flush_self_stats(s) < 0 || conflict == ERR)
        return NULL;
    if (conflict == NO_REASON)
        Py_RETURN_NONE;
    return PyLong_FromLong(conflict);
}

static PyObject *
core_pick_branch_var(Core *s, PyObject *unused)
{
    int32_t var;

    (void)unused;
    if (not_busy(s) < 0)
        return NULL;
    if ((var = pick_branch_var(s)) == 0)
        Py_RETURN_NONE;
    return PyLong_FromLong(var);
}

/* Install the watches of a loaded clause: two literals that are free or
   true first, in the reference's stable placement. */
static void
place_watches(Core *s, ref_t ref)
{
    word_t *c = s->arena + ref;
    Py_ssize_t size = SIZE(s->arena, ref), k, i0 = 0, i1 = -1;
    lit_t tmp;

    for (k = 1; k < size; k++) {
        if (s->lit_val[c[1 + k]] > s->lit_val[c[1 + i0]])
            i0 = k;
    }
    for (k = 0; k < size; k++) {
        if (k != i0 && (i1 < 0 || s->lit_val[c[1 + k]]
                                  > s->lit_val[c[1 + i1]]))
            i1 = k;
    }
    tmp = c[1];
    c[1] = c[1 + i0];
    c[1 + i0] = tmp;
    if (i1 == 0)
        i1 = i0;
    tmp = c[2];
    c[2] = c[1 + i1];
    c[1 + i1] = tmp;
    watch(s, c[1], ref, c[2]);
    watch(s, c[2], ref, c[1]);
}

/* Load the sorted, duplicate-free, non-tautological DIMACS clause lits. */
static int
load_clause(Core *s, const long long *lits, Py_ssize_t n, long long pid,
            PyObject *proof)
{
    ref_t ref, conflict;
    Py_ssize_t k, nfree = 0;
    lit_t unit = 0;
    int satisfied = 0;

    if (cancel_until(s, 0) < 0)
        return -1;
    if (n == 0) {
        s->unsat = 1;
        s->unsat_pid = pid;
        return 0;
    }
    for (k = 0; k < n; k++)
        s->learnt[k] = lits[k] > 0 ? (lit_t)lits[k] << 1
                                   : (lit_t)(-lits[k]) << 1 | 1;
    if (RESERVE(s->clauses, s->clauses_cap, s->num_clauses + 1) < 0)
        return -1;
    for (k = 0; k < n; k++) {
        /* Any two literals may be placed first: room in every list. */
        WatchList *wl = &s->watches[s->learnt[k]];

        if (RESERVE(wl->w, wl->cap, wl->n + 1) < 0)
            return -1;
    }
    if ((ref = alloc_clause(s, s->learnt, n, 0, pid)) == ERR)
        return -1;
    if (s->trail_len == 0 && n >= 2) {
        /* Nothing assigned (the bulk-loading case): the first two
           literals are the watches. */
        watch(s, s->learnt[0], ref, s->learnt[1]);
        watch(s, s->learnt[1], ref, s->learnt[0]);
        s->clauses[s->num_clauses++] = ref;
        return 1;
    }
    for (k = 0; k < n; k++) {
        int v = s->lit_val[s->learnt[k]];

        if (v >= 0) {
            if (nfree++ == 0)
                unit = s->learnt[k];
            satisfied |= v == 1;
        }
    }
    if (satisfied || nfree >= 2) {
        if (n >= 2)
            place_watches(s, ref);
        s->clauses[s->num_clauses++] = ref;
        return 1;
    }
    if (nfree == 1) {
        s->clauses[s->num_clauses++] = ref;
        if (n >= 2)
            place_watches(s, ref);
        enqueue(s, unit, ref);
        if ((conflict = propagate(s)) == ERR)
            return -1;
        if (conflict == NO_REASON)
            return 1;
        return level0_refutation(s, conflict, proof, NULL);
    }
    /* Every literal false at level 0: an immediate refutation. */
    return level0_refutation(s, ref, proof, NULL);
}

/*
 * add_clause(lits, axiom=True, proof_id=None): add a problem clause.
 * Duplicates are merged and a tautology is dropped; with a proof store
 * and no proof_id the clause is registered as an axiom first.  True while
 * the solver is consistent, False once the clause made it unsatisfiable.
 * It runs once per loaded clause, so it takes FASTCALL arguments and
 * parses its two keywords itself.
 */
static PyObject *
core_add_clause(Core *s, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    PyObject *given[3] = {NULL, Py_True, Py_None}, *names[3];
    PyObject *seq = NULL, *proof = NULL, *list = NULL, *id, *result = NULL;
    long long *lits = NULL, lit, pid = NO_PROOF;
    Py_ssize_t n, k, m, nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0, i;
    int axiom, status;

    names[0] = str_lits;
    names[1] = str_axiom;
    names[2] = str_proof_id;
    if (nargs > 3) {
        PyErr_SetString(PyExc_TypeError, "add_clause() takes at most 3 "
                        "arguments");
        return NULL;
    }
    for (k = 0; k < nargs; k++)
        given[k] = args[k];
    for (i = 0; i < nkw; i++) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, i);

        for (k = 0; k < 3; k++) {
            if (name == names[k]
                    || PyUnicode_Compare(name, names[k]) == 0)
                break;
        }
        if (k == 3 || k < nargs) {
            PyErr_Format(PyExc_TypeError, "add_clause() got an unexpected "
                         "or repeated keyword argument %R", name);
            return NULL;
        }
        given[k] = args[nargs + i];
    }
    if (given[0] == NULL) {
        PyErr_SetString(PyExc_TypeError, "add_clause() missing argument "
                        "'lits'");
        return NULL;
    }
    if (not_busy(s) < 0)
        return NULL;
    if (s->unsat)
        Py_RETURN_FALSE;
    if ((axiom = PyObject_IsTrue(given[1])) < 0)
        return NULL;
    if (given[2] != Py_None && pid_value(given[2], &pid) < 0)
        return NULL;
    if ((seq = PySequence_Fast(given[0], "lits must be iterable")) == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    if ((lits = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof *lits))
            == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (k = 0; k < n; k++) {
        if (int_in(PySequence_Fast_GET_ITEM(seq, k), -(long long)MAX_VARS,
                   MAX_VARS, PyExc_ValueError, "literal", &lits[k]) < 0)
            goto done;
        if (lits[k] == 0) {
            PyErr_SetString(PyExc_ValueError,
                            "literal 0 is not allowed in a clause");
            goto done;
        }
    }
    qsort(lits, (size_t)n, sizeof *lits, cmp_dimacs);
    for (m = 0, k = 0; k < n; k++) {
        if (m == 0 || lits[m - 1] != lits[k])
            lits[m++] = lits[k];
    }
    n = m;
    /* A tautology is satisfied everywhere: skip it. */
    for (k = 0; k < n && lits[k] < 0; k++) {
        lit = -lits[k];
        if (bsearch(&lit, lits + k + 1, (size_t)(n - k - 1), sizeof *lits,
                    cmp_dimacs) != NULL) {
            result = Py_True;
            Py_INCREF(result);
            goto done;
        }
    }
    if (n > 0 && ensure_vars(s, (Py_ssize_t)(lits[n - 1] > -lits[0]
                                             ? lits[n - 1] : -lits[0])) < 0)
        goto done;
    if ((proof = PyObject_GetAttr((PyObject *)s, str_proof)) == NULL)
        goto done;
    s->busy = 1;
    if (proof != Py_None && given[2] == Py_None) {
        if (!axiom) {
            proof_error("non-axiom clauses need an explicit proof_id", 0);
            goto unbusy;
        }
        if ((list = PyList_New(n)) == NULL)
            goto unbusy;
        for (k = 0; k < n; k++) {
            if ((id = PyLong_FromLongLong(lits[k])) == NULL)
                goto unbusy;
            PyList_SET_ITEM(list, k, id);
        }
        id = PyObject_CallMethodObjArgs(proof, str_add_axiom, list, NULL);
        if (id == NULL)
            goto unbusy;
        status = pid_value(id, &pid);
        Py_DECREF(id);
        if (status < 0)
            goto unbusy;
    }
    status = load_clause(s, lits, n, pid, proof);
    if (status >= 0)
        result = PyBool_FromLong(status == 1 && !s->unsat);

unbusy:
    s->busy = 0;
    if (flush_self_stats(s) < 0)
        Py_CLEAR(result);

done:
    Py_XDECREF(list);
    Py_XDECREF(proof);
    Py_XDECREF(seq);
    PyMem_Free(lits);
    return result;
}

/*
 * _search(assumptions, max_conflicts, budget, progress, clock, ids): one
 * solve call; (status, model, final_clause, proof_id) for SolveResult.
 * clock is None when the call is not timed; ids is the list id_object
 * keeps the proof-id ints in.
 */
static PyObject *
core_search(Core *s, PyObject *const *args, Py_ssize_t nargs)
{
    Call c;
    PyObject *seq = NULL, *result = NULL, *status;
    lit_t *assume = NULL;
    Py_ssize_t k;
    int outcome;

    if (check_nargs("_search", nargs, 6) < 0 || not_busy(s) < 0)
        return NULL;
    if (!PyList_CheckExact(args[5])) {
        PyErr_Format(PyExc_TypeError, "_search: ids is %.100s, not list",
                     Py_TYPE(args[5])->tp_name);
        return NULL;
    }
    memset(&c, 0, sizeof c);
    c.budget = args[2];
    c.progress = args[3];
    c.clock = args[4] == Py_None ? NULL : args[4];
    c.ids = args[5];
    if (args[1] != Py_None) {
        c.capped = 1;
        if (int_in(args[1], LLONG_MIN, LLONG_MAX, PyExc_ValueError,
                   "max_conflicts", &c.max_conflicts) < 0)
            return NULL;
    }
    if ((seq = PySequence_Fast(args[0], "assumptions must be iterable"))
            == NULL)
        return NULL;
    c.nassume = PySequence_Fast_GET_SIZE(seq);
    if ((assume = PyMem_Malloc((size_t)(c.nassume + 1) * sizeof *assume))
            == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (k = 0; k < c.nassume; k++) {
        if (lit_arg(s, PySequence_Fast_GET_ITEM(seq, k), &assume[k]) < 0)
            goto done;
    }
    for (k = 0; k < c.nassume && !s->seen[assume[k] >> 1]; k++)
        s->seen[assume[k] >> 1] = 1;
    outcome = k < c.nassume;
    while (k > 0)
        s->seen[assume[--k] >> 1] = 0;
    if (outcome) {
        PyErr_SetString(PyExc_ValueError, "duplicate or contradictory "
                        "assumption variable");
        goto done;
    }
    c.assume = assume;
    if ((c.proof = PyObject_GetAttr((PyObject *)s, str_proof)) == NULL
            || (c.stats = PyObject_GetAttr((PyObject *)s, str_stats)) == NULL)
        goto done;
    s->phases[0] = s->phases[1] = s->phases[2] = 0.0;
    if (s->unsat)
        outcome = R_UNSAT;
    else {
        s->busy = 1;
        outcome = search(s, &c);
        s->busy = 0;
    }
    if (flush_self_stats(s) < 0 || outcome == R_ERROR)
        goto done;
    memcpy(s->phases, c.phases, sizeof c.phases);
    status = outcome == R_SAT ? Py_True
        : outcome == R_UNSAT ? Py_False : Py_None;
    if (outcome == R_UNSAT && c.final == NULL) {
        /* An unconditional refutation. */
        c.final = PyTuple_New(0);
        c.pid = s->unsat_pid < 0 ? Py_None
            : PyLong_FromLongLong(s->unsat_pid);
        if (c.pid == Py_None)
            Py_INCREF(Py_None);
        if (c.final == NULL || c.pid == NULL)
            goto done;
    }
    result = Py_BuildValue("(OOOO)", status,
                           c.model ? c.model : Py_None,
                           c.final ? c.final : Py_None,
                           c.pid ? c.pid : Py_None);

done:
    Py_XDECREF(c.model);
    Py_XDECREF(c.final);
    Py_XDECREF(c.pid);
    Py_XDECREF(c.stats);
    Py_XDECREF(c.proof);
    Py_XDECREF(seq);
    PyMem_Free(assume);
    return result;
}

/* -- Clause accessors ---------------------------------------------- */

static PyObject *
core_clause_size(Core *s, PyObject *arg)
{
    ref_t ref;

    if (ref_arg(s, arg, &ref) < 0)
        return NULL;
    return PyLong_FromSsize_t(SIZE(s->arena, ref));
}

static PyObject *
core_clause_is_learnt(Core *s, PyObject *arg)
{
    ref_t ref;

    if (ref_arg(s, arg, &ref) < 0)
        return NULL;
    return PyBool_FromLong(s->arena[ref] & LEARNT);
}

static PyObject *
core_clause_lits(Core *s, PyObject *arg)
{
    ref_t ref;

    if (ref_arg(s, arg, &ref) < 0)
        return NULL;
    return dimacs_list(s->arena + ref + 1, SIZE(s->arena, ref));
}

static PyObject *
core_clause_proof_id(Core *s, PyObject *arg)
{
    ref_t ref;
    long long pid;

    if (ref_arg(s, arg, &ref) < 0)
        return NULL;
    if ((pid = clause_pid(s->arena, ref)) < 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(pid);
}

static PyObject *
core_clause_activity(Core *s, PyObject *arg)
{
    ref_t ref;

    if (ref_arg(s, arg, &ref) < 0)
        return NULL;
    return PyFloat_FromDouble(clause_act(s->arena, ref));
}

static PyObject *
ref_list(const ref_t *refs, Py_ssize_t n)
{
    PyObject *list = PyList_New(n), *item;
    Py_ssize_t k;

    for (k = 0; list != NULL && k < n; k++) {
        if ((item = PyLong_FromLong(refs[k])) == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, k, item);
    }
    return list;
}

static PyObject *
core_clause_refs(Core *s, PyObject *unused)
{
    (void)unused;
    return ref_list(s->clauses, s->num_clauses);
}

static PyObject *
core_reason_ref(Core *s, PyObject *arg)
{
    long long var;

    if (int_in(arg, 0, s->num_vars, PyExc_IndexError, "variable",
               &var) < 0)
        return NULL;
    if (s->reason[var] == NO_REASON)
        Py_RETURN_NONE;
    return PyLong_FromLong(s->reason[var]);
}

/* -- Read-only snapshots ------------------------------------------- */

/* A new list of the flags, as bools. */
static PyObject *
bool_list(const unsigned char *flags, Py_ssize_t n)
{
    PyObject *list = PyList_New(n), *item;
    Py_ssize_t k;

    for (k = 0; list != NULL && k < n; k++) {
        item = flags[k] ? Py_True : Py_False;
        Py_INCREF(item);
        PyList_SET_ITEM(list, k, item);
    }
    return list;
}

static PyObject *
get_num_vars(Core *s, void *unused)
{
    (void)unused;
    return PyLong_FromSsize_t(s->num_vars);
}

static PyObject *
get_phase(Core *s, void *unused)
{
    (void)unused;
    return bool_list(s->phase, s->num_vars + 1);
}

static PyObject *
get_heap_live(Core *s, void *unused)
{
    (void)unused;
    return bool_list(s->live, s->num_vars + 1);
}

static PyObject *
get_seen(Core *s, void *unused)
{
    (void)unused;
    return bool_list(s->seen, s->num_vars + 1);
}

static PyObject *
get_activity(Core *s, void *unused)
{
    PyObject *list = PyList_New(s->num_vars + 1), *item;
    Py_ssize_t k;

    (void)unused;
    for (k = 0; list != NULL && k <= s->num_vars; k++) {
        if ((item = PyFloat_FromDouble(s->activity[k])) == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, k, item);
    }
    return list;
}

static PyObject *
get_heap(Core *s, void *unused)
{
    PyObject *list = PyList_New(s->heap_len), *item;
    Py_ssize_t k;

    (void)unused;
    for (k = 0; list != NULL && k < s->heap_len; k++) {
        if ((item = Py_BuildValue("(di)", s->heap[k].key, s->heap[k].var))
                == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, k, item);
    }
    return list;
}

static PyObject *
get_watches(Core *s, void *unused)
{
    Py_ssize_t n = 2 * (s->num_vars + 1), k, i;
    PyObject *list = PyList_New(n), *ws, *item;

    (void)unused;
    for (k = 0; list != NULL && k < n; k++) {
        if ((ws = PyList_New(2 * s->watches[k].n)) == NULL) {
            Py_CLEAR(list);
            break;
        }
        PyList_SET_ITEM(list, k, ws);
        for (i = 0; i < 2 * s->watches[k].n; i++) {
            const Watch *w = &s->watches[k].w[i / 2];

            item = PyLong_FromLong(i & 1 ? (long)w->blocker : (long)w->ref);
            if (item == NULL) {
                Py_CLEAR(list);
                break;
            }
            PyList_SET_ITEM(ws, i, item);
        }
    }
    return list;
}

static PyObject *
get_trail_lim(Core *s, void *unused)
{
    (void)unused;
    return ref_list(s->trail_lim, s->num_levels);
}

static PyObject *
get_clauses(Core *s, void *unused)
{
    (void)unused;
    return ref_list(s->clauses, s->num_clauses);
}

static PyObject *
get_learnts(Core *s, void *unused)
{
    (void)unused;
    return ref_list(s->learnts, s->num_learnts);
}

static PyObject *
get_var_inc(Core *s, void *unused)
{
    (void)unused;
    return PyFloat_FromDouble(s->var_inc);
}

static PyObject *
get_cla_inc(Core *s, void *unused)
{
    (void)unused;
    return PyFloat_FromDouble(s->cla_inc);
}

static PyObject *
get_unsat(Core *s, void *unused)
{
    (void)unused;
    return PyBool_FromLong(s->unsat);
}

static PyObject *
get_unsat_proof_id(Core *s, void *unused)
{
    (void)unused;
    if (s->unsat_pid < 0)
        Py_RETURN_NONE;
    return PyLong_FromLongLong(s->unsat_pid);
}

static PyObject *
get_phases(Core *s, void *unused)
{
    (void)unused;
    return Py_BuildValue("(ddd)", s->phases[0], s->phases[1], s->phases[2]);
}

/* ------------------------------------------------------------------ */
/* Type and module                                                     */
/* ------------------------------------------------------------------ */

static PyObject *
core_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    Core *s = (Core *)type->tp_alloc(type, 0);

    (void)args;
    (void)kwargs;
    if (s == NULL)
        return NULL;
    if (reserve_vars(s, 0) < 0) {
        Py_DECREF(s);
        return NULL;
    }
    s->lit_val[0] = s->lit_val[1] = 0;
    s->member[0] = s->member[1] = 0;
    s->level[0] = 0;
    s->reason[0] = NO_REASON;
    s->activity[0] = 0.0;
    s->phase[0] = s->live[0] = s->seen[0] = s->zero[0] = 0;
    s->var_inc = s->cla_inc = 1.0;
    s->restart_base = 100;
    s->var_decay = 0.95;
    s->clause_decay = 0.999;
    s->unsat_pid = NO_PROOF;
    return (PyObject *)s;
}

static int
core_init(Core *s, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"restart_base", "var_decay", "clause_decay",
                             NULL};
    long long restart_base = 100;
    double var_decay = 0.95, clause_decay = 0.999;

    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "|Ldd:Core", kwlist,
                                     &restart_base, &var_decay,
                                     &clause_decay))
        return -1;
    if (restart_base < 1 || restart_base > (1LL << 32)) {
        PyErr_SetString(PyExc_ValueError,
                        "restart_base must be between 1 and 2**32");
        return -1;
    }
    if (var_decay == 0.0 || clause_decay == 0.0) {
        PyErr_SetString(PyExc_ValueError, "a decay factor must not be 0");
        return -1;
    }
    s->restart_base = restart_base;
    s->var_decay = var_decay;
    s->clause_decay = clause_decay;
    return 0;
}

static void
core_dealloc(Core *s)
{
    Py_ssize_t k;

    if (s->watches != NULL) {
        for (k = 0; k < 2 * s->var_cap; k++)
            PyMem_Free(s->watches[k].w);
    }
    PyMem_Free(s->watches);
    PyMem_Free(s->level);
    PyMem_Free(s->reason);
    PyMem_Free(s->activity);
    PyMem_Free(s->phase);
    PyMem_Free(s->live);
    PyMem_Free(s->seen);
    PyMem_Free(s->zero);
    PyMem_Free(s->trail);
    PyMem_Free(s->learnt);
    PyMem_Free(s->stack);
    PyMem_Free(s->lit_val);
    PyMem_Free(s->member);
    PyMem_Free(s->trail_lim);
    PyMem_Free(s->arena);
    PyMem_Free(s->clauses);
    PyMem_Free(s->learnts);
    PyMem_Free(s->heap);
    PyMem_Free(s->steps);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

#define METHOD(name, func, flags, doc) \
    {name, (PyCFunction)(void (*)(void))func, flags, doc}

static PyMethodDef core_methods[] = {
    METHOD("new_var", core_new_var, METH_NOARGS,
           "Allocate a fresh variable and return its (positive) index."),
    METHOD("ensure_vars", core_ensure_vars, METH_O,
           "Grow the variable table to at least *count* variables."),
    METHOD("value", core_value, METH_O,
           "Current value of *lit*: 1 true, -1 false, 0 unassigned."),
    METHOD("decision_level", core_decision_level, METH_NOARGS,
           "Current decision level."),
    METHOD("cancel_until", core_cancel_until, METH_O,
           "Undo all assignments above *level*."),
    METHOD("add_clause", core_add_clause, METH_FASTCALL | METH_KEYWORDS,
           "add_clause(lits, axiom=True, proof_id=None)\n--\n\n"
           "Add a problem clause (duplicates merged, a tautology dropped).\n"
           "When proof logging, the clause is registered as an axiom unless\n"
           "*proof_id* names an externally derived clause (then pass\n"
           "axiom=False).  True while the solver is consistent, False once\n"
           "the clause made it unsatisfiable at level 0."),
    METHOD("clause_size", core_clause_size, METH_O,
           "Number of literals of the clause at *ref*."),
    METHOD("clause_is_learnt", core_clause_is_learnt, METH_O,
           "Whether the clause at *ref* is a learned clause."),
    METHOD("clause_lits", core_clause_lits, METH_O,
           "DIMACS literals of the clause at *ref*, in arena order."),
    METHOD("clause_proof_id", core_clause_proof_id, METH_O,
           "Proof-store id of the clause at *ref* (None when not logging)."),
    METHOD("clause_activity", core_clause_activity, METH_O,
           "Learned-clause activity of the clause at *ref*."),
    METHOD("clause_refs", core_clause_refs, METH_NOARGS,
           "Refs of the live problem clauses, in insertion order."),
    METHOD("reason_ref", core_reason_ref, METH_O,
           "Clause ref that propagated *var*, or None for decisions."),
    METHOD("_new_decision_level", core_new_decision_level, METH_NOARGS,
           "Open a decision level."),
    METHOD("_enqueue", core_enqueue, METH_FASTCALL,
           "_enqueue(lit, None)\n--\n\nAssign the free literal *lit* true "
           "as a decision."),
    METHOD("_propagate", core_propagate, METH_NOARGS,
           "Unit propagation: a conflicting clause ref or None."),
    METHOD("_pick_branch_var", core_pick_branch_var, METH_NOARGS,
           "The next decision variable, or None when all are assigned."),
    METHOD("_search", core_search, METH_FASTCALL,
           "_search(assumptions, max_conflicts, budget, progress, clock, "
           "ids)\n--\n\nOne solve call: (status, model, final_clause, "
           "proof_id)."),
    {NULL, NULL, 0, NULL},
};

#define SNAPSHOT(name, func, doc) {name, (getter)func, NULL, doc, NULL}

static PyGetSetDef core_getset[] = {
    SNAPSHOT("num_vars", get_num_vars, "Number of variables."),
    SNAPSHOT("_phase", get_phase, "Saved phase per variable."),
    SNAPSHOT("_activity", get_activity, "VSIDS activity per variable."),
    SNAPSHOT("_heap", get_heap, "The (-activity, var) branching heap."),
    SNAPSHOT("_heap_live", get_heap_live,
             "Per variable: the heap holds its current entry."),
    SNAPSHOT("_seen", get_seen, "Analysis mark per variable."),
    SNAPSHOT("_watches", get_watches,
             "Per literal: its watches as [ref, blocker, ...]."),
    SNAPSHOT("_trail_lim", get_trail_lim,
             "Trail position of each decision level."),
    SNAPSHOT("_clauses", get_clauses, "Problem clause refs."),
    SNAPSHOT("_learnts", get_learnts, "Learnt clause refs."),
    SNAPSHOT("_var_inc", get_var_inc, "VSIDS bump increment."),
    SNAPSHOT("_cla_inc", get_cla_inc, "Learnt-clause bump increment."),
    SNAPSHOT("_unsat", get_unsat, "Whether the empty clause was derived."),
    SNAPSHOT("_unsat_proof_id", get_unsat_proof_id,
             "Proof id of the empty clause, or None."),
    SNAPSHOT("_last_solve_phases", get_phases,
             "Propagate, analyze and restart seconds of the last solve."),
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sat._propagate.Core",
    .tp_doc = "The solver state and search of repro.sat.solver.Solver.",
    .tp_basicsize = sizeof(Core),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_new = core_new,
    .tp_init = (initproc)core_init,
    .tp_dealloc = (destructor)core_dealloc,
    .tp_methods = core_methods,
    .tp_getset = core_getset,
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
    PyObject *module;
    int k;

    for (k = 0; k < N_STATS; k++) {
        if (intern(&stat_str[k], stat_names[k]) < 0)
            return NULL;
    }
    if (intern(&str_proof, "proof") < 0
            || intern(&str_stats, "stats") < 0
            || intern(&str_add_axiom, "add_axiom") < 0
            || intern(&str_add_derived, "add_derived") < 0
            || intern(&str_on_conflict, "on_conflict") < 0
            || intern(&str_note_proof_size, "note_proof_size") < 0
            || intern(&str_exhausted_reason, "exhausted_reason") < 0
            || intern(&str_tick, "tick") < 0
            || intern(&str_lits, "lits") < 0
            || intern(&str_axiom, "axiom") < 0
            || intern(&str_proof_id, "proof_id") < 0
            || PyType_Ready(&CoreType) < 0)
        return NULL;
    if ((module = PyModule_Create(&module_def)) == NULL)
        return NULL;
    Py_INCREF(&CoreType);
    if (PyModule_AddObject(module, "Core", (PyObject *)&CoreType) < 0) {
        Py_DECREF(&CoreType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}

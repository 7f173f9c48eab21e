"""The And-Inverter Graph (AIG) data structure.

An AIG represents combinational logic using only two-input AND nodes and
complemented edges. It is the working representation of every engine in this
package: circuits are built (or parsed from AIGER) into an :class:`AIG`,
miters are AIGs, the sweeping engine operates on an AIG, and the Tseitin
encoder consumes one.

Nodes are identified by dense variable indices. Variable 0 is the constant;
variables ``1 .. num_inputs`` are primary inputs (in creation order); AND
nodes follow. Because AND nodes can only be created from existing literals,
variable order is always a valid topological order.

Construction goes through :meth:`AIG.add_and`, which performs constant
folding, unit simplification and structural hashing, so syntactically
identical nodes are created only once.
"""

from .literal import (
    FALSE,
    TRUE,
    lit_not,
    lit_not_cond,
    lit_sign,
    lit_var,
    make_lit,
)

# Sentinel fanin marking non-AND variables (constant and inputs).
_NO_FANIN = -1


class AIG:
    """A structurally hashed And-Inverter Graph.

    Attributes:
        name: optional design name carried through I/O.
    """

    def __init__(self, name=""):
        self.name = name
        # Fanins indexed by variable; _NO_FANIN for the constant and inputs.
        self._fanin0 = [_NO_FANIN]
        self._fanin1 = [_NO_FANIN]
        self._inputs = []
        self._input_names = []
        self._outputs = []
        self._output_names = []
        # Structural-hashing table: (fanin0, fanin1) -> variable.
        self._strash = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_vars(self):
        """Total number of variables, including the constant."""
        return len(self._fanin0)

    @property
    def num_inputs(self):
        """Number of primary inputs."""
        return len(self._inputs)

    @property
    def num_outputs(self):
        """Number of primary outputs."""
        return len(self._outputs)

    @property
    def num_ands(self):
        """Number of AND nodes."""
        return self.num_vars - 1 - self.num_inputs

    @property
    def inputs(self):
        """Tuple of input variables in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self):
        """Tuple of output literals in declaration order."""
        return tuple(self._outputs)

    @property
    def input_names(self):
        """Tuple of input names (empty string when unnamed)."""
        return tuple(self._input_names)

    @property
    def output_names(self):
        """Tuple of output names (empty string when unnamed)."""
        return tuple(self._output_names)

    def is_and(self, var):
        """True when *var* is an AND node."""
        return self._fanin0[var] != _NO_FANIN

    def fanins(self, var):
        """The two fanin literals of AND node *var*."""
        f0 = self._fanin0[var]
        if f0 == _NO_FANIN:
            raise ValueError("variable %d is not an AND node" % var)
        return f0, self._fanin1[var]

    def and_vars(self):
        """Iterate AND variables in topological (creation) order."""
        return range(self.num_inputs + 1, self.num_vars)

    def __len__(self):
        return self.num_ands

    def __repr__(self):
        return "AIG(name=%r, inputs=%d, outputs=%d, ands=%d)" % (
            self.name,
            self.num_inputs,
            self.num_outputs,
            self.num_ands,
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_input(self, name=""):
        """Declare a new primary input and return its literal.

        Inputs must be declared before any AND node is created, so that
        variable indices remain partitioned as constant / inputs / ANDs.
        """
        if self.num_ands:
            raise ValueError("inputs must be declared before AND nodes")
        var = self.num_vars
        self._fanin0.append(_NO_FANIN)
        self._fanin1.append(_NO_FANIN)
        self._inputs.append(var)
        self._input_names.append(name)
        return make_lit(var)

    def add_inputs(self, count, prefix="i"):
        """Declare *count* inputs named ``prefix0 .. prefixN`` and return their literals."""
        return [self.add_input("%s%d" % (prefix, k)) for k in range(count)]

    def add_output(self, lit, name=""):
        """Declare *lit* as a primary output."""
        self._check_lit(lit)
        self._outputs.append(lit)
        self._output_names.append(name)

    def set_output(self, index, lit):
        """Redirect output *index* to *lit* (used by sweeping engines)."""
        self._check_lit(lit)
        self._outputs[index] = lit

    def _check_lit(self, lit):
        if not 0 <= lit_var(lit) < self.num_vars:
            raise ValueError("literal %d references unknown variable" % lit)

    def add_and(self, a, b):
        """Return the literal of ``a AND b``.

        Applies constant folding (``x & 0 = 0``, ``x & 1 = x``), unit
        simplification (``x & x = x``, ``x & ~x = 0``) and structural
        hashing before allocating a node.
        """
        # The parser and every circuit generator call this per node, so
        # the literal helpers (_check_lit, lit_not, make_lit) are
        # inlined; the checks and folding rules are theirs.
        num_vars = len(self._fanin0)
        if not 0 <= a >> 1 < num_vars:
            raise ValueError("literal %d references unknown variable" % a)
        if not 0 <= b >> 1 < num_vars:
            raise ValueError("literal %d references unknown variable" % b)
        # Normalize operand order for hashing (larger literal first, the
        # AIGER binary-format convention).
        if a < b:
            a, b = b, a
        if b == FALSE or a == b ^ 1:
            return FALSE
        if b == TRUE or a == b:
            return a
        key = (a, b)
        var = self._strash.get(key)
        if var is None:
            var = num_vars
            self._fanin0.append(a)
            self._fanin1.append(b)
            self._strash[key] = var
        return 2 * var

    def find_and(self, a, b):
        """Literal of an existing node ``a AND b``, or ``None``.

        Unlike :meth:`add_and` this never allocates; constant folding and
        unit simplification still apply.
        """
        if a < b:
            a, b = b, a
        if b == FALSE or a == lit_not(b):
            return FALSE
        if b == TRUE or a == b:
            return a
        var = self._strash.get((a, b))
        return None if var is None else make_lit(var)

    # Derived gates ----------------------------------------------------

    def add_or(self, a, b):
        """Return the literal of ``a OR b``."""
        return lit_not(self.add_and(lit_not(a), lit_not(b)))

    def add_xor(self, a, b):
        """Return the literal of ``a XOR b`` (two AND nodes)."""
        return lit_not(
            self.add_and(
                lit_not(self.add_and(a, lit_not(b))),
                lit_not(self.add_and(lit_not(a), b)),
            )
        )

    def add_mux(self, sel, then_lit, else_lit):
        """Return the literal of ``sel ? then_lit : else_lit``."""
        return lit_not(
            self.add_and(
                lit_not(self.add_and(sel, then_lit)),
                lit_not(self.add_and(lit_not(sel), else_lit)),
            )
        )

    def add_and_multi(self, lits):
        """Balanced conjunction of an iterable of literals (TRUE when empty)."""
        return self._reduce_balanced(list(lits), self.add_and, TRUE)

    def add_or_multi(self, lits):
        """Balanced disjunction of an iterable of literals (FALSE when empty)."""
        return self._reduce_balanced(list(lits), self.add_or, FALSE)

    def add_xor_multi(self, lits):
        """Balanced parity of an iterable of literals (FALSE when empty)."""
        return self._reduce_balanced(list(lits), self.add_xor, FALSE)

    @staticmethod
    def _reduce_balanced(lits, op, empty):
        if not lits:
            return empty
        while len(lits) > 1:
            nxt = []
            for k in range(0, len(lits) - 1, 2):
                nxt.append(op(lits[k], lits[k + 1]))
            if len(lits) % 2:
                nxt.append(lits[-1])
            lits = nxt
        return lits[0]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    def evaluate(self, input_values):
        """Evaluate all outputs for one input assignment.

        Args:
            input_values: sequence of booleans/0-1 ints, one per input.

        Returns:
            List of output values as 0/1 ints.
        """
        values = self.evaluate_all(input_values)
        return [self._lit_value(values, lit) for lit in self._outputs]

    def evaluate_all(self, input_values):
        """Evaluate every variable for one input assignment.

        Returns a list indexed by variable holding 0/1 values (the constant
        variable holds 0, i.e. literal 0 is FALSE).
        """
        if len(input_values) != self.num_inputs:
            raise ValueError(
                "expected %d input values, got %d"
                % (self.num_inputs, len(input_values))
            )
        values = [0] * self.num_vars
        for var, val in zip(self._inputs, input_values):
            values[var] = 1 if val else 0
        f0, f1 = self._fanin0, self._fanin1
        for var in self.and_vars():
            a, b = f0[var], f1[var]
            va = values[a >> 1] ^ (a & 1)
            vb = values[b >> 1] ^ (b & 1)
            values[var] = va & vb
        return values

    @staticmethod
    def _lit_value(values, lit):
        return values[lit_var(lit)] ^ (1 if lit_sign(lit) else 0)

    def lit_value(self, values, lit):
        """Value of *lit* given a variable-value table from :meth:`evaluate_all`."""
        return self._lit_value(values, lit)

    def truth_table(self, lit=None):
        """Exhaustive truth table (LSB-first input ordering) as an int.

        Bit *k* of the result is the value under the assignment whose bit
        *j* gives input *j*. With no argument, returns a list of tables,
        one per output. Only sensible for small input counts.
        """
        if self.num_inputs > 16:
            raise ValueError("truth_table limited to 16 inputs")
        if lit is None:
            return [self.truth_table(out) for out in self._outputs]
        table = 0
        for k in range(1 << self.num_inputs):
            bits = [(k >> j) & 1 for j in range(self.num_inputs)]
            values = self.evaluate_all(bits)
            if self._lit_value(values, lit):
                table |= 1 << k
        return table

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def levels(self):
        """Logic depth of every variable (inputs and constant at level 0)."""
        level = [0] * self.num_vars
        f0, f1 = self._fanin0, self._fanin1
        for var in self.and_vars():
            level[var] = 1 + max(level[f0[var] >> 1], level[f1[var] >> 1])
        return level

    def depth(self):
        """Maximum output logic depth."""
        if not self._outputs:
            return 0
        level = self.levels()
        return max(level[lit_var(lit)] for lit in self._outputs)

    def fanout_counts(self):
        """Number of fanout references per variable (outputs included)."""
        counts = [0] * self.num_vars
        f0, f1 = self._fanin0, self._fanin1
        for var in self.and_vars():
            counts[f0[var] >> 1] += 1
            counts[f1[var] >> 1] += 1
        for lit in self._outputs:
            counts[lit_var(lit)] += 1
        return counts

    def cone_vars(self, lits):
        """Set of variables in the transitive fanin cone of *lits*."""
        seen = set()
        stack = [lit_var(lit) for lit in lits]
        f0, f1 = self._fanin0, self._fanin1
        while stack:
            var = stack.pop()
            if var in seen:
                continue
            seen.add(var)
            if f0[var] != _NO_FANIN:
                stack.append(f0[var] >> 1)
                stack.append(f1[var] >> 1)
        return seen

    def copy(self):
        """Deep copy of this AIG."""
        other = AIG(self.name)
        other._fanin0 = list(self._fanin0)
        other._fanin1 = list(self._fanin1)
        other._inputs = list(self._inputs)
        other._input_names = list(self._input_names)
        other._outputs = list(self._outputs)
        other._output_names = list(self._output_names)
        other._strash = dict(self._strash)
        return other

    def rebuild(self, outputs=None):
        """Reconstruct a compacted AIG containing only reachable logic.

        Args:
            outputs: optional list of ``(lit, name)`` pairs replacing the
                current outputs.

        Returns:
            ``(new_aig, lit_map)`` where ``lit_map`` maps every old variable
            to the literal representing it in the new AIG (or ``None`` when
            the variable was unreachable). All inputs are preserved so the
            two AIGs stay input-compatible.
        """
        if outputs is None:
            outputs = list(zip(self._outputs, self._output_names))
        new = AIG(self.name)
        lit_map = [None] * self.num_vars
        lit_map[0] = FALSE
        for var, name in zip(self._inputs, self._input_names):
            lit_map[var] = new.add_input(name)
        reachable = self.cone_vars([lit for lit, _ in outputs])
        f0, f1 = self._fanin0, self._fanin1
        for var in self.and_vars():
            if var not in reachable:
                continue
            a, b = f0[var], f1[var]
            ma = lit_not_cond(lit_map[a >> 1], a & 1)
            mb = lit_not_cond(lit_map[b >> 1], b & 1)
            lit_map[var] = new.add_and(ma, mb)
        for lit, name in outputs:
            new.add_output(lit_not_cond(lit_map[lit_var(lit)], lit_sign(lit)), name)
        return new, lit_map

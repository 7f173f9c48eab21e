"""Canonical structural hashing of AIGs.

:func:`structural_hash` digests an AIG's *structure* — the DAG of AND
nodes over positionally numbered inputs, with complement edges, plus
the ordered output list — into a fixed-size hex string. The digest is
canonical in the sense that it is invariant under everything that does
not change the circuit function as this package compares circuits:

* **node creation order** — each node's digest is computed bottom-up
  from its fanins' digests, never from variable indices;
* **operand order** — the two (digest, complement) fanin pairs are
  sorted before hashing, so ``a & b`` and ``b & a`` collide by design;
* **names** — input/output/design names are ignored (the equivalence
  checker matches interfaces positionally; callers that match by name
  should permute first, exactly as :func:`repro.aig.miter.build_miter`
  does).

It deliberately *is* sensitive to input order, output order, and output
complementation, because those change which function the k-th output
computes over the k-th inputs — the identity the CEC service's result
cache must key on.

:func:`pair_key` extends the node digest to an (AIG, AIG) query key
that is symmetric in the two circuits: equivalence is a symmetric
relation and the service stores a self-contained certificate (miter
CNF + proof), so a cached answer for ``(A, B)`` is equally valid for
``(B, A)``.
"""

import hashlib

from .literal import lit_sign, lit_var

#: Per-node digest width in bytes. 16 bytes (128 bits) keeps the hash
#: table compact while making accidental collisions over the life of a
#: cache directory vanishingly unlikely.
_DIGEST_SIZE = 16

_INPUT_TAG = b"i"
_AND_TAG = b"a"
_CONST_TAG = b"0"


def _blake(*parts):
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    for part in parts:
        h.update(part)
    return h.digest()


def node_digests(aig):
    """Per-variable canonical digests, indexed by variable.

    The constant and each input get position-based leaf digests; every
    AND node hashes its fanins' ``(digest, complement)`` pairs in sorted
    order. Shared sub-structure therefore always produces identical
    digests regardless of how or when the nodes were created.
    """
    digests = [b""] * aig.num_vars
    digests[0] = _blake(_CONST_TAG)
    for position, var in enumerate(aig.inputs):
        digests[var] = _blake(_INPUT_TAG, position.to_bytes(4, "big"))
    # Every request to the service hashes both circuits, so the loop
    # reads the fanin lists directly (same package) and hashes each node
    # in one call; the hashed bytes are the tag and the two sorted pairs,
    # exactly as _blake would feed them.
    blake2b = hashlib.blake2b
    polarity = (b".", b"~")
    first = aig.num_inputs + 1
    for var, f0, f1 in zip(
        range(first, aig.num_vars), aig._fanin0[first:], aig._fanin1[first:],
    ):
        pair0 = digests[f0 >> 1] + polarity[f0 & 1]
        pair1 = digests[f1 >> 1] + polarity[f1 & 1]
        if pair1 < pair0:
            pair0, pair1 = pair1, pair0
        digests[var] = blake2b(
            _AND_TAG + pair0 + pair1, digest_size=_DIGEST_SIZE,
        ).digest()
    return digests


def structural_hash(aig):
    """Canonical hex digest of *aig*'s structure (names ignored).

    Two AIGs receive the same hash exactly when they have the same
    number of inputs and, output for output, structurally identical
    (modulo operand order and node numbering) fanin cones with the same
    output complementations.
    """
    digests = node_digests(aig)
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE * 2)
    h.update(b"aig-struct/1")
    h.update(aig.num_inputs.to_bytes(4, "big"))
    for lit in aig.outputs:
        h.update(digests[lit_var(lit)])
        h.update(b"~" if lit_sign(lit) else b".")
    return h.hexdigest()


def pair_key(aig_a, aig_b, salt=""):
    """Symmetric content key for an equivalence query over two AIGs.

    The two structural hashes are sorted before combining, so
    ``pair_key(a, b) == pair_key(b, a)``; *salt* folds in any extra
    context that changes the answer's artifact (e.g. a canonical
    encoding of the engine options).
    """
    ha = structural_hash(aig_a)
    hb = structural_hash(aig_b)
    if hb < ha:
        ha, hb = hb, ha
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE * 2)
    h.update(b"cec-pair/1")
    h.update(ha.encode("ascii"))
    h.update(hb.encode("ascii"))
    h.update(salt.encode("utf-8"))
    return h.hexdigest()

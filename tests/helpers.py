"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the code paths they are used to check:
the defining relation is re-evaluated straight from the weights and the
connection with rational arithmetic, ranks are computed by Gaussian
elimination over Fractions, and lattice membership is decided by a rational
solve followed by an integrality check.  The pairwise congruence test
(``ratio`` of a weight difference, 2×2 minors for dependence) is the
reference for the packed residues and primitive directions of
``gkmgraph.axial``, the propagation that checks every edge
(``propagation_checking_every_edge``) is the reference for the solver that
stops at rank ``n``, and Smith invariant factors are read off the gcds of
minors (``smith_by_minors``).  ``validation_by_residues`` decides axiom 3 by
comparing residues modulo ``Z·w(e)`` and axiom 4 by Smith invariant factors,
the reference for the packed division and the HNF test of
``validate_axial``, and ``coefficients_by_division`` divides every
out-dart's weight change of every dart, the reference for the congruence
vectors a validation hands on; ``validation_checking_every_vertex`` checks axiom 2 at
every pair and axiom 4 at every vertex, the reference for its shortcuts.
``transport_matrix`` (``propagate`` on the unit vectors),
``permutation_matrix`` (the matrix of ``permutation``),
``canonical_elements`` (the coordinates of the weights),
``long_cycle`` (a GKM graph whose breadth-first tree is thousands deep),
``with_orderings`` (``build_graph`` with other orderings),
``with_first_vertex`` (the vertices renamed so that a chosen one sorts first,
which is where the solver starts), ``in_vertex_order`` (a lattice solved on
such a renaming, read back in the original vertex order) and
``basis_elements`` (the rows of a basis cut into vertex blocks) rebuild from
the public API what only tests need, and ``main_outcome`` runs one command
line in process.  ``grassmannian_by_subsets`` builds the
Grassmannian family from frozensets, swapping the replaced and the new
element inside each target subset, the reference for the index tables of
``gen_grassmannian``.  ``parse_by_schema`` reads a document with plain
``json.loads`` and a walk written from the schema, the reference for the
decoder and the schema walk of ``parse_gkm``.  Nothing private is imported
from the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from collections import deque
from fractions import Fraction
from itertools import combinations, product
from math import gcd

from gkmgraph import (
    AxiomFailure,
    EdgeRecord,
    GkmDocument,
    GkmGraph,
    IntegerMatrix,
    ParseError,
    SchemaError,
    ValidationReport,
    build_graph,
    document_from_gkm,
    gen_grassmannian,
    gen_projective,
    gen_s6,
    gkm_from_document,
    integer_kernel_basis,
    invariant_factors,
    invariant_function,
    lattice_basis,
    permutation,
    propagate,
    reverse_name,
    validate_axial,
)
from gkmgraph.axial import AmbiguousConnectionError, AxiomViolationError, ConnectionNotFoundError
from gkmgraph.cli import main
from gkmgraph.extension import project_axial
from gkmgraph.graph import AxialError, AxialFunction, OrientedGraph


def core_fixtures() -> dict[str, GkmGraph]:
    """The desk-scale fixture registry used across property tests."""
    out = {f"projective{m}": gen_projective(m) for m in (1, 2, 3, 4)}
    out["s6"] = gen_s6()
    for n in (1, 2, 3):
        out[f"grassmannian{n}"] = gen_grassmannian(n)
    return out


def long_cycle(length: int = 4000) -> GkmGraph:
    """A cycle whose edge ``i`` carries e1, e2, −e1, −e2 by ``i mod 4``, its connection inferred.

    Each vertex sees two independent weights and every weight change across an
    edge is zero, so the axioms hold (``length`` a multiple of 4); the
    breadth-first tree from any vertex is ``length / 2`` deep.
    """
    units, names = [(1, 0), (0, 1), (-1, 0), (0, -1)], tuple(f"v{i:04d}" for i in range(length))
    edges = tuple(EdgeRecord(f"e{i:04d}", names[i], names[(i + 1) % length], units[i % 4]) for i in range(length))
    return gkm_from_document(GkmDocument(2, names, edges))


def method_fixtures() -> dict[str, GkmGraph]:
    """Fixtures for dual-solver comparisons; adds the larger Johnson graph."""
    out = core_fixtures()
    out["grassmannian4"] = gen_grassmannian(4)
    return out


def grassmannian_by_subsets(n: int) -> GkmGraph:
    """``J(n+2, 2)`` with the Grassmannian weights, built pair by pair from frozensets.

    Each connection image swaps the replaced and the new element inside the
    target subset; each dart id is formatted from the two subset names.
    """
    ground = range(1, n + 3)
    name = {frozenset((i, j)): f"{i:02d}.{j:02d}" for i, j in combinations(ground, 2)}
    pairs = list(name)
    neighbours = {u: [t for t in pairs if t != u and t & u] for u in pairs}

    def unit(i: int) -> tuple[int, ...]:
        return tuple(1 if t == i else 0 for t in range(1, n + 2))

    def dart_id(u, w) -> str:
        a, b = name[u], name[w]
        return f"{a}|{b}" if a < b else reverse_name(f"{b}|{a}")

    edges = []
    connection = {}
    for u, w in combinations(pairs, 2):
        if not (u & w):
            continue
        src, dst = (u, w) if name[u] < name[w] else (w, u)
        a, b = name[src], name[dst]
        (old,) = src - dst
        (new,) = dst - src
        edges.append(EdgeRecord(f"{a}|{b}", a, b, tuple(x - y for x, y in zip(unit(new), unit(old)))))
        swap = {old: new, new: old}
        images = {dart_id(src, t): dart_id(dst, frozenset(swap.get(x, x) for x in t)) for t in neighbours[src]}
        connection[f"{a}|{b}"] = images
    orderings = {}
    for u in pairs:
        i, j = sorted(u)
        others = sorted(set(ground) - u)
        orderings[name[u]] = tuple(
            [dart_id(u, frozenset({i, k})) for k in others] + [dart_id(u, frozenset({j, k})) for k in others]
        )
    return gkm_from_document(GkmDocument(n + 1, tuple(name.values()), tuple(edges), connection, orderings))


def weight_ratio(diff, base):
    """Rational c with diff == c * base, or None."""
    pivot = next((i for i, x in enumerate(base) if x), None)
    if pivot is None:
        return Fraction(0) if not any(diff) else None
    c = Fraction(diff[pivot], base[pivot])
    if all(Fraction(d) == c * b for d, b in zip(diff, base)):
        return c
    return None


def sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ratio(diff, base):
    """Integer ``c`` with ``diff == c * base``, or ``None``."""
    pivot = next((i for i, x in enumerate(base) if x), None)
    if pivot is None:
        return 0 if not any(diff) else None
    q, r = divmod(diff[pivot], base[pivot])
    if r:
        return None
    if any(d != q * b for d, b in zip(diff, base)):
        return None
    return q


def pairwise_dependent(a, b) -> bool:
    """Whether every 2×2 minor of the pair vanishes (so a zero weight is dependent on all)."""
    n = len(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return True


class NotAMultipleError(Exception):
    """The division oracle found a weight change that is not an integer multiple of the base weight."""


def congruence_coefficient(gkm: GkmGraph, e: str, e_prime: str) -> int:
    """The integer ``c`` with ``weight(image of e') - weight(e') == c * weight(e)``."""
    img = gkm.connection[e][e_prime]
    c = ratio(sub(gkm.weight(img), gkm.weight(e_prime)), gkm.weight(e))
    if c is None:
        raise NotAMultipleError(
            f"weight change of {e_prime} across {e} is not a multiple of the base weight"
        )
    return c


def congruence_vector(gkm: GkmGraph, e: str) -> tuple[int, ...]:
    """Congruence coefficients of all out-darts at the source of ``e``, in order."""
    p = gkm.graph.sources[e]
    return tuple(congruence_coefficient(gkm, e, d) for d in gkm.graph.orderings[p])


def residue(w, base):
    """``w`` modulo ``Z·base``: ``w − (w[p] // base[p])·base`` at the first nonzero ``p``, or ``w`` for a zero ``base``."""
    p = next((i for i, x in enumerate(base) if x), None)
    if p is None:
        return tuple(w)
    q = w[p] // base[p]
    return tuple(x - q * b for x, b in zip(w, base))


def validation_by_residues(graph: OrientedGraph, axial: AxialFunction, connection=None) -> ValidationReport:
    """``validate_axial`` with axiom 3 decided by residues and axiom 4 by Smith invariant factors.

    Axioms 1 and 2 are taken from ``validate_axial`` itself.  A map passes
    the congruence test at ``e'`` when ``w(∇e')`` and ``w(e')`` have equal
    :func:`residue` modulo ``Z·w(e)``, and a vertex passes axiom 4 when its
    weights have ``n`` invariant factors, all 1.  Failures come in the order
    ``validate_axial`` reports them.
    """
    w = axial.weights
    report = validate_axial(graph, axial)
    failures = [f for f in report.failures if f.axiom in (1, 2)]
    for e in graph.darts if connection is not None else ():
        nabla = connection.get(e)
        if nabla is None:
            failures.append(AxiomFailure(3, f"dart {e}", "connection has no map for this dart"))
            continue
        outs, ins = set(graph.orderings[graph.sources[e]]), set(graph.orderings[graph.targets[e]])
        if set(nabla) != outs or set(nabla.values()) != ins:
            failures.append(AxiomFailure(3, f"dart {e}", "map is not a bijection between the out-dart sets"))
            continue
        eb = graph.reverse(e)
        if nabla[e] != eb:
            failures.append(AxiomFailure(3, f"dart {e}", f"map must send {e} to {eb}"))
        back = connection.get(eb)
        if back is not None and any(back.get(img) != src for src, img in nabla.items()):
            failures.append(AxiomFailure(3, f"dart {e}", f"map for {eb} is not the inverse"))
        for e2, img in nabla.items():
            if residue(w[img], w[e]) != residue(w[e2], w[e]):
                failures.append(
                    AxiomFailure(3, f"dart {e}", f"weight change of {e2} is not a multiple of the base weight")
                )
    n = axial.torus_rank
    for p in graph.vertices:
        factors = invariant_factors(IntegerMatrix.from_rows([w[d] for d in graph.orderings[p]], n))
        if len(factors) != n or any(f != 1 for f in factors):
            failures.append(AxiomFailure(4, f"vertex {p}", "weights do not span the integer lattice"))
    return ValidationReport((1, 2, 3, 4) if connection is not None else (1, 2, 4), tuple(failures))


def coefficients_by_division(graph: OrientedGraph, axial: AxialFunction, connection) -> dict:
    """The congruence vector of every dart whose map is a bijection, one ``divmod`` per out-dart.

    Entry ``j`` of the vector of ``e`` is :func:`ratio` of the weight change
    of the ``j``-th out-dart at the source of ``e``: the integer ``c`` with
    ``w(∇e d) − w(d) = c·w(e)``, or ``None`` where there is none.  Each dart
    is divided on its own, with no use of its reverse.
    """
    w = axial.weights
    vectors = {}
    for e in graph.darts:
        nabla = connection.get(e)
        outs, ins = graph.orderings[graph.sources[e]], graph.orderings[graph.targets[e]]
        if nabla is None or set(nabla) != set(outs) or set(nabla.values()) != set(ins):
            continue
        vectors[e] = tuple(ratio(sub(w[nabla[d]], w[d]), w[e]) for d in outs)
    return vectors


def validation_checking_every_vertex(graph: OrientedGraph, axial: AxialFunction, connection=None) -> ValidationReport:
    """``validate_axial`` with no shortcut: axiom 2 at every pair of out-darts, axiom 4 at every vertex.

    Axioms 1 and 3 are taken from ``validate_axial`` itself.  A pair fails
    axiom 2 when all its 2×2 minors vanish (:func:`pairwise_dependent`), and a
    vertex fails axiom 4 unless its weights have ``n`` invariant factors, all 1.
    """
    w, n = axial.weights, axial.torus_rank
    report = validate_axial(graph, axial, connection)
    failures = list(report.failures_for(1))
    for p in graph.vertices:
        for a, b in combinations(graph.orderings[p], 2):
            if pairwise_dependent(w[a], w[b]):
                failures.append(AxiomFailure(2, f"vertex {p}", f"darts {a} and {b} carry dependent weights"))
    failures += report.failures_for(3)
    for p in graph.vertices:
        factors = invariant_factors(IntegerMatrix.from_rows([w[d] for d in graph.orderings[p]], n))
        if len(factors) != n or any(f != 1 for f in factors):
            failures.append(AxiomFailure(4, f"vertex {p}", "weights do not span the integer lattice"))
    return ValidationReport(report.checked, tuple(failures))


def infer_connection_by_scan(graph: OrientedGraph, axial: AxialFunction) -> dict[str, dict[str, str]]:
    """Reference for ``infer_connection``: test every (source, target) out-dart pair.

    For each dart ``e`` and out-dart ``e'`` at its source, scan the target's
    out-darts with the pairwise ratio test.  O(darts·m²·n), with the same
    errors, messages and order as the residue-keyed inference.
    """
    w, n = axial.weights, axial.torus_rank
    for d in graph.darts:
        if d not in w:
            raise AxialError(f"dart {d} carries no weight")
        if len(w[d]) != n:
            raise AxialError(f"weight of dart {d} has length {len(w[d])}, expected {n}")
    maps: dict[str, dict[str, str]] = {}
    for e in graph.darts:
        p, q = graph.sources[e], graph.targets[e]
        eb = graph.reverse(e)
        nabla = {e: eb}
        pool = [d for d in graph.orderings[q] if d != eb]
        for e2 in graph.orderings[p]:
            if e2 == e:
                continue
            cands = [d for d in pool if ratio(sub(w[d], w[e2]), w[e]) is not None]
            if not cands:
                raise ConnectionNotFoundError(
                    f"dart {e2} at vertex {p} has no partner across dart {e}"
                )
            if len(cands) > 1:
                raise AmbiguousConnectionError(
                    f"dart {e2} at vertex {p} has {len(cands)} partners across dart {e}; "
                    "supply the connection explicitly"
                )
            nabla[e2] = cands[0]
        if len(set(nabla.values())) != graph.valence:
            raise ConnectionNotFoundError(
                f"the forced partners across dart {e} do not form a bijection"
            )
        back = maps.get(eb)
        if back is not None and any(back[img] != src for src, img in nabla.items()):
            raise ConnectionNotFoundError(
                f"forced partners across {eb} and its reverse are not mutually inverse"
            )
        maps[e] = nabla
    return maps


def relation_holds(gkm: GkmGraph, values, e: str) -> bool:
    """Direct evaluation of the defining relation at dart ``e``.

    ``values`` maps each vertex to its integer vector in out-dart order.  The
    permutation and the coefficient vector are recomputed here from scratch.
    """
    g = gkm.graph
    p, q = g.sources[e], g.targets[e]
    eb = g.reverse(e)
    out_p, out_q = g.orderings[p], g.orderings[q]
    fp, fq = values[p], values[q]
    pos_q = {d: i for i, d in enumerate(out_q)}
    nabla = gkm.connection[e]
    permuted = [0] * len(out_q)
    for i, d in enumerate(out_p):
        permuted[pos_q[nabla[d]]] = fp[i]
    nabla_back = gkm.connection[eb]
    web = gkm.weight(eb)
    cbar = []
    for d in out_q:
        img = nabla_back[d]
        diff = tuple(a - b for a, b in zip(gkm.weight(img), gkm.weight(d)))
        c = weight_ratio(diff, web)
        if c is None or c.denominator != 1:
            return False
        cbar.append(int(c))
    f_eb = fq[pos_q[eb]]
    return all(permuted[j] - fq[j] == f_eb * cbar[j] for j in range(len(out_q)))


def element_in_lattice(gkm: GkmGraph, element) -> bool:
    return all(relation_holds(gkm, element, e) for e in gkm.graph.darts)


def brute_force_solutions(gkm: GkmGraph, bound: int = 2) -> list[tuple[int, ...]]:
    """All solutions of the defining relations with entries in [-bound, bound]."""
    g = gkm.graph
    m = g.valence
    dim = m * len(g.vertices)
    solutions = []
    for combo in product(range(-bound, bound + 1), repeat=dim):
        values = {
            v: combo[i * m : (i + 1) * m] for i, v in enumerate(g.vertices)
        }
        if all(relation_holds(gkm, values, e) for e in g.edge_representatives()):
            solutions.append(combo)
    return solutions


def rational_rank(rows) -> int:
    """Rank over Q by Gaussian elimination with Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][j]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][j]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][j]:
                f = mat[i][j]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def determinant(rows) -> int:
    """Exact determinant of a square matrix by Gaussian elimination over Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for j in range(len(mat)):
        piv = next((i for i in range(j, len(mat)) if mat[i][j]), None)
        if piv is None:
            return 0
        if piv != j:
            mat[j], mat[piv] = mat[piv], mat[j]
            det = -det
        det *= mat[j][j]
        for i in range(j + 1, len(mat)):
            f = mat[i][j] / mat[j][j]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[j])]
    return int(det)


def smith_by_minors(rows, ncols: int) -> tuple[int, ...]:
    """Nonzero Smith invariant factors from determinantal divisors: ``s_k = d_k / d_(k-1)``.

    ``d_k`` is the gcd of all k×k minors (``d_0 = 1``); the factors stop at
    the first ``k`` whose minors all vanish, which is the rank plus one.
    """
    factors, prev = [], 1
    for k in range(1, min(len(rows), ncols) + 1):
        d = 0
        for r in combinations(range(len(rows)), k):
            for c in combinations(range(ncols), k):
                d = gcd(d, determinant([[rows[i][j] for j in c] for i in r]))
        if not d:
            break
        factors.append(d // prev)
        prev = d
    return tuple(factors)


def rational_solve(rows, target):
    """Fractions x with x @ rows == target, or None (rows independent)."""
    if not rows:
        return None if any(target) else []
    cols = len(rows[0])
    aug = [[Fraction(rows[i][j]) for i in range(len(rows))] + [Fraction(target[j])] for j in range(cols)]
    n = len(rows)
    rank = 0
    for j in range(n):
        piv = next((i for i in range(rank, len(aug)) if aug[i][j]), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = 1 / aug[rank][j]
        aug[rank] = [x * inv for x in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][j]:
                f = aug[i][j]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[rank])]
        rank += 1
    solution = [Fraction(0)] * n
    for i in range(rank):
        j = next(k for k in range(n) if aug[i][k])
        solution[j] = aug[i][n]
    for i in range(len(aug)):
        lhs = sum(aug[i][k] * solution[k] for k in range(n))
        if lhs != aug[i][n]:
            return None
    return solution


def in_integer_span(rows, target) -> bool:
    """Whether target is an integer combination of the (independent) rows."""
    sol = rational_solve(rows, target)
    return sol is not None and all(c.denominator == 1 for c in sol)


def random_unimodular(rng: random.Random, size: int, steps: int = 12) -> IntegerMatrix:
    """Random element of GL(size, Z) as a product of elementary operations."""
    rows = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(size)
        j = rng.randrange(size)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        elif kind == 1 and i != j:
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == 2:
            rows[i] = [-x for x in rows[i]]
    return IntegerMatrix.from_rows(rows, size)


def random_valid_projection(rng: random.Random, gkm: GkmGraph, attempts: int = 60):
    """A random surjection composed with the weights that keeps the axioms.

    Returns ``(projected_gkm, pi)``; retries on pairwise-independence
    failures and raises after too many attempts.
    """
    n = gkm.axial.torus_rank
    for _ in range(attempts):
        k = 1 if n == 1 else rng.randrange(2, n + 1)
        u = random_unimodular(rng, n)
        pi = IntegerMatrix.from_rows(u.data[:k], n)
        try:
            return project_axial(gkm, pi), pi
        except AxiomViolationError:
            continue
    raise AssertionError("no valid random projection found")


def shuffled_orderings(rng: random.Random, graph) -> dict[str, tuple[str, ...]]:
    out = {}
    for v in graph.vertices:
        order = list(graph.orderings[v])
        rng.shuffle(order)
        out[v] = tuple(order)
    return out


def bent_documents(rng: random.Random, gkm: GkmGraph, count: int) -> list[GkmDocument]:
    """``count`` connection-free documents of ``gkm`` with bent weights.

    Half of them first map every weight through a random square matrix with
    entries in [-2, 2], which keeps each congruence.  Then up to three edge
    weights are zeroed, shifted by ±1 in some entries, doubled, or copied
    from another edge (at least one when nothing was mapped).  Documents
    still negate ``w(X~)``.
    """
    doc = document_from_gkm(gkm)
    out = []
    for _ in range(count):
        edges = list(doc.edges)
        mapped = rng.random() < 0.5
        if mapped:
            mat = [[rng.randint(-2, 2) for _ in range(doc.torus_rank)] for _ in range(doc.torus_rank)]
            edges = [e._replace(weight=tuple(sum(a * b for a, b in zip(r, e.weight)) for r in mat)) for e in edges]
        for _ in range(rng.randint(0 if mapped else 1, 3)):
            i = rng.randrange(len(edges))
            w = edges[i].weight
            new = rng.choice(
                [
                    (0,) * len(w),
                    tuple(x + rng.choice((-1, 0, 1)) for x in w),
                    tuple(2 * x for x in w),
                    rng.choice(edges).weight,
                ]
            )
            edges[i] = edges[i]._replace(weight=new)
        out.append(doc._replace(edges=tuple(edges), connection=None))
    return out


# s6 with torus rank 1 and a pinned connection sending e2 to e3~, not to its
# reverse e2~ (axiom 3 fails, so does axiom 2); the congruence still holds
# across every dart, so the propagation step would read the wrong coordinate
TWISTED_S6 = """{
  "torus_rank": 1,
  "vertices": ["p", "q"],
  "edges": [
    {"id": "e1", "endpoints": ["p", "q"], "weight": [-2]},
    {"id": "e2", "endpoints": ["p", "q"], "weight": [1]},
    {"id": "e3", "endpoints": ["p", "q"], "weight": [1]}
  ],
  "connection": [
    {"dart": "e1", "maps": [["e1", "e1~"], ["e2", "e3~"], ["e3", "e2~"]]},
    {"dart": "e2", "maps": [["e1", "e2~"], ["e2", "e3~"], ["e3", "e1~"]]},
    {"dart": "e3", "maps": [["e1", "e1~"], ["e2", "e2~"], ["e3", "e3~"]]}
  ]
}
"""


def with_orderings(graph: OrientedGraph, orderings) -> OrientedGraph:
    """The same graph rebuilt by ``build_graph`` with the orderings at some vertices replaced."""
    edges = [(e, graph.sources[e], graph.targets[e]) for e in graph.edge_representatives()]
    return build_graph(graph.vertices, edges, orderings={**graph.orderings, **orderings})


def with_first_vertex(gkm: GkmGraph, first: str) -> GkmGraph:
    """The same structure with every vertex ``v`` renamed ``"a" + v`` if it is ``first``, else ``"b" + v``.

    So ``first`` sorts first and the others keep their order.  Dart ids,
    weights and the connection are kept: the graph is rebuilt by
    ``build_graph`` with the same ``AxialFunction``, so a labeling off the
    axioms is renamed too.
    """
    g = gkm.graph
    new = {v: ("a" if v == first else "b") + v for v in g.vertices}
    edges = [(e, new[g.sources[e]], new[g.targets[e]]) for e in g.edge_representatives()]
    orderings = {new[v]: order for v, order in g.orderings.items()}
    return GkmGraph(build_graph(new.values(), edges, orderings), gkm.axial, gkm.connection)


def in_vertex_order(gkm: GkmGraph, renamed: GkmGraph, coordinates: IntegerMatrix) -> IntegerMatrix:
    """The lattice of ``coordinates`` over ``renamed = with_first_vertex(gkm, v)``, in ``gkm``'s vertex order.

    Each row's vertex blocks are put back in the order of ``gkm.graph.vertices``
    and the rows are brought to canonical form by ``lattice_basis``.
    """
    m, width = gkm.m, coordinates.ncols
    rows = []
    for row in coordinates.data:
        blocks = {v[1:]: row[i * m : (i + 1) * m] for i, v in enumerate(renamed.graph.vertices)}
        rows.append(tuple(x for v in gkm.graph.vertices for x in blocks[v]))
    return IntegerMatrix.from_rows(lattice_basis(rows, width), width)


def basis_elements(gkm: GkmGraph, basis) -> list[dict[str, tuple[int, ...]]]:
    """The rows of ``basis.coordinate_matrix`` cut into vertex blocks: per element, a map from vertex to vector."""
    m = gkm.m
    rows = basis.coordinate_matrix.data
    return [{v: row[i * m : (i + 1) * m] for i, v in enumerate(gkm.graph.vertices)} for row in rows]


def transport_matrix(gkm: GkmGraph, e: str) -> IntegerMatrix:
    """Matrix ``T`` with ``T @ x == propagate(gkm, x, e)``: ``propagate`` on the unit vectors."""
    columns = [propagate(gkm, unit, e) for unit in IntegerMatrix.identity(gkm.m).data]
    return IntegerMatrix.from_rows(columns, gkm.m).transpose()


def permutation_matrix(gkm: GkmGraph, e: str) -> IntegerMatrix:
    """The m×m matrix ``N_e`` with ``(N_e x)_j = x[σ(j)]``, ``σ`` the ``permutation`` of ``e``."""
    sig = permutation(gkm, e)
    return IntegerMatrix.from_rows([[int(k == s) for k in range(len(sig))] for s in sig], len(sig))


def canonical_elements(gkm: GkmGraph) -> tuple[dict[str, tuple[int, ...]], ...]:
    """The n solutions read off the weights: the i-th holds, at every vertex, the i-th coordinates of its out-darts."""
    g, w = gkm.graph, gkm.axial.weights
    return tuple({p: tuple(w[d][i] for d in g.orderings[p]) for p in g.vertices} for i in range(gkm.n))


def renamed_vertices(rng: random.Random, gkm: GkmGraph) -> GkmGraph:
    """The same structure with the vertices renamed at random, so they sort in another order."""
    names = [f"v{i:03d}" for i in range(len(gkm.graph.vertices))]
    rng.shuffle(names)
    new = dict(zip(gkm.graph.vertices, names))
    doc = document_from_gkm(gkm)
    return gkm_from_document(
        GkmDocument(
            doc.torus_rank,
            tuple(new[v] for v in doc.vertices),
            tuple(EdgeRecord(e.id, new[e.source], new[e.target], e.weight) for e in doc.edges),
            doc.connection,
            {new[v]: order for v, order in doc.orderings.items()},
        )
    )


def breadth_first_tree(graph: OrientedGraph) -> list[str]:
    """The darts of the breadth-first tree from ``graph.vertices[0]``, in the order the walk adds them.

    Out-darts are taken in sorted order, whatever the graph's orderings.
    """
    base = graph.vertices[0]
    tree, seen, queue = [], {base}, deque([base])
    while queue:
        p = queue.popleft()
        for e in sorted(graph.orderings[p]):
            if graph.targets[e] not in seen:
                seen.add(graph.targets[e])
                tree.append(e)
                queue.append(graph.targets[e])
    return tree


def propagation_checking_every_edge(gkm: GkmGraph) -> IntegerMatrix:
    """Reference for the propagation solver: its ``coordinate_matrix``.

    The kernel at the first vertex starts as ``Z^m``, is spread over the
    breadth-first tree (out-darts in sorted order), and is cut down by every
    non-tree edge in turn, re-spread after each cut.  No edge is skipped, so
    no rank argument is involved.  Transport across ``e`` is
    ``y_j = x[σ(j)] − k·x[e]·c(ē)_j`` with ``k = 1 + c(ē)_ē``, read from the ē
    row ``k·f(q)_ē = f(p)_e`` of the relation (``k = −1`` under axiom 1).
    """
    g, m = gkm.graph, gkm.graph.valence
    base = g.vertices[0]
    inv = invariant_function(gkm)

    def step(e):
        sig, pe, cbar = permutation(gkm, e), g.positions[e], inv[g.reverse(e)]
        k = 1 + cbar[g.positions[g.reverse(e)]]
        return lambda x: tuple(x[s] - k * x[pe] * c for s, c in zip(sig, cbar))

    tree = breadth_first_tree(g)
    used = set(tree) | {g.reverse(e) for e in tree}
    steps = {e: step(e) for e in g.darts}

    def spread(kernel):
        values = {base: kernel}
        for e in tree:
            values[g.targets[e]] = [steps[e](x) for x in values[g.sources[e]]]
        return values

    kernel = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    values = spread(kernel)
    for e in g.edge_representatives():
        if e in used:
            continue
        moved, there = [steps[e](x) for x in values[g.sources[e]]], values[g.targets[e]]
        if moved == there:
            continue
        block = [tuple(a - b for a, b in zip(x, y)) for x, y in zip(moved, there)]
        combos = integer_kernel_basis(IntegerMatrix.from_rows(block, m).transpose())
        kernel = [tuple(sum(c * k[j] for c, k in zip(combo, kernel)) for j in range(m)) for combo in combos]
        values = spread(kernel)
    width = m * len(g.vertices)
    coords = lattice_basis([tuple(x for v in g.vertices for x in values[v][i]) for i in range(len(kernel))], width)
    return IntegerMatrix.from_rows(coords, width)


def main_outcome(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``gkmgraph.cli.main(argv)``, a usage error's ``SystemExit`` included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_by_schema(text: str) -> GkmDocument:
    """The document ``text`` holds, or the ``ParseError`` or ``SchemaError`` that ``parse_gkm`` names.

    Plain ``json.loads``, a repeated key keeping its last value, then the
    schema field by field, in document order: ``torus_rank``, ``vertices``,
    each edge (its shape, then its weight length), each connection entry (its
    fields, dart, a dart named twice, then its pairs in order) and each ordering.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError("arrays or objects are nested too deeply") from exc
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"an integer literal exceeds Python's int-max-str-digits limit of {limit} digits") from exc

    def strings(x) -> bool:
        return type(x) is list and all(type(y) is str for y in x)

    if type(obj) is not dict:
        raise SchemaError("$: expected a JSON object")
    unknown = sorted(set(obj) - {"torus_rank", "vertices", "edges", "connection", "orderings"})
    if unknown:
        raise SchemaError(f"$: unknown fields: {unknown}")
    rank = obj.get("torus_rank")
    if type(rank) is not int or rank < 1:
        raise SchemaError("torus_rank: expected a positive integer")
    if not strings(obj.get("vertices")):
        raise SchemaError("vertices: expected a list of strings")
    if type(obj.get("edges")) is not list:
        raise SchemaError("edges: expected a list")
    edges = []
    for k, e in enumerate(obj["edges"]):
        at = f"edges[{k}]"
        if type(e) is not dict:
            raise SchemaError(f"{at}: expected an object")
        if sorted(e) != ["endpoints", "id", "weight"]:
            raise SchemaError(f"{at}: expected fields id, endpoints, weight")
        if type(e["id"]) is not str or e["id"] == "":
            raise SchemaError(f"{at}.id: expected a nonempty string")
        if not (strings(e["endpoints"]) and len(e["endpoints"]) == 2):
            raise SchemaError(f"{at}.endpoints: expected a pair of vertex ids")
        if not (type(e["weight"]) is list and all(type(x) is int for x in e["weight"])):
            raise SchemaError(f"{at}.weight: expected a list of integers")
        if len(e["weight"]) != rank:
            raise SchemaError(f"{at}.weight: expected {rank} integers, got {len(e['weight'])}")
        edges.append(EdgeRecord(e["id"], e["endpoints"][0], e["endpoints"][1], tuple(e["weight"])))
    connection = None
    if obj.get("connection") is not None:
        if type(obj["connection"]) is not list:
            raise SchemaError("connection: expected a list")
        connection = {}
        for k, c in enumerate(obj["connection"]):
            at = f"connection[{k}]"
            if type(c) is not dict or sorted(c) != ["dart", "maps"]:
                raise SchemaError(f"{at}: expected fields dart, maps")
            if type(c["dart"]) is not str:
                raise SchemaError(f"{at}.dart: expected a string")
            if c["dart"] in connection:
                raise SchemaError(f"{at}.dart: duplicate dart")
            if type(c["maps"]) is not list:
                raise SchemaError(f"{at}.maps: expected a list of pairs")
            images = {}
            for kk, pair in enumerate(c["maps"]):
                if not (strings(pair) and len(pair) == 2):
                    raise SchemaError(f"{at}.maps[{kk}]: expected a pair of dart ids")
                if pair[0] in images:
                    raise SchemaError(f"{at}.maps[{kk}]: dart {pair[0]} is mapped twice")
                images[pair[0]] = pair[1]
            connection[c["dart"]] = images
    orderings = None
    if obj.get("orderings") is not None:
        if type(obj["orderings"]) is not dict:
            raise SchemaError("orderings: expected an object")
        orderings = {}
        for v, order in obj["orderings"].items():
            if not strings(order):
                raise SchemaError(f"orderings.{v}: expected a list of strings")
            orderings[v] = tuple(order)
    return GkmDocument(rank, tuple(obj["vertices"]), tuple(edges), connection, orderings)

"""Universal differential calculus on a finite abelian lattice.

The carrier is the torus Z_N^n.  Forms are sparse linear combinations of
simplicial node paths; the exterior derivative is the alternating insertion
sum over all nodes and slots.  With no reduction attached this is the full
calculus of the complete graph, which serves as the brute-force oracle for
the blade algebra in :mod:`latclif.forms`.

Each node is numbered once, by its position in the lexicographic
``Torus.nodes()``, and a stored path is a tuple of node numbers, so ordering
paths by (length, path) orders them as their coordinates would.  Coordinate
tuples appear only where a path enters (the ``UForm`` constructor and the
named forms) or leaves (:meth:`UForm.first_term`,
:meth:`UForm.coordinate_terms` and the repr).  Inside the full derivative
a path is one int more: its node numbers as digits in base N^n below a
leading digit 1, so that inserting a node is int arithmetic; the sums are
keyed by those ints and read back into tuples once, at the end.

A form maps each path to the Gaussian-integer numerator ``(re, im)`` of its
coefficient, all over one positive denominator, as a box function stores
its samples.  Sums, products, scalings, the derivative and the
constructors are int arithmetic followed by one gcd over the whole result,
and a ``Scalar`` is made only when a coefficient is read (``terms``,
:meth:`UForm.first_term`, :meth:`UForm.coordinate_terms`, the repr).

Attaching a :class:`Reduction` passes to the nearest-neighbour quotient.
Path projection alone (dropping paths with a non-unit step) does not kill
the straight and returning 2-paths whose vanishing the quotient requires,
so reduced forms are kept in a canonical shape: paths with a repeated
signed step are zero, and the step sequence of every stored path is sorted
into the generator order (negative steps by axis, then positive steps by
axis) with the permutation parity absorbed into the coefficient.  Under
this normal form the reduced algebra is exactly functions tensor a
Grassmann algebra on 2n anticommuting step generators, which is what the
adjacency-form identities (the vanishing square of the adjacency form, the
anticommutation of the invariant 1-forms) assert.  A reduction reads each
step from one neighbour table, built when it is created: node number and
generator index to node number, and back.

The sign rule is :func:`grassmann_sort`, which
:func:`latclif.forms.blade_from_factors` shares.  A reduction keys each
step by its position in :func:`allowed_steps` (-e_1, ..., -e_n, then
+e_1, ..., +e_n), which orders the steps as the blade factors (-1, j) of
dx_j^- and (1, j) of dx_j^+ order the differentials they map to.
Every form built from paths (the constructor, the product and the
derivative) puts each path in canonical shape, absorbing its sign, and
then sums the numerators, dropping a sum that cancels.

The reduced derivative is the insertion at the two ends of a path: a
neighbour of the first node before it, a neighbour of the last node after
it.  Every other term of the full insertion sum dies in the quotient: a
node that is not a neighbour makes a non-unit step, and an interior node
one unit step from both sides of a step e exists only at N = 3, where it
makes the step -e twice.  The derivative never uses the adjacency form or
the graded-bracket identity that the reduction suite checks against it.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import lcm
from operator import ne

from .scalars import ONE, Scalar, as_scalar, from_triple, lowest_terms


class Torus:
    """The group Z_N^n with componentwise addition modulo N."""

    def __init__(self, n, N):
        if n < 1:
            raise ValueError("n must be at least 1")
        if N < 2:
            raise ValueError("N must be at least 2")
        self.n = n
        self.N = N
        self._nodes = tuple(itertools.product(range(N), repeat=n))
        self._numbers = {node: i for i, node in enumerate(self._nodes)}

    def nodes(self):
        return self._nodes

    def number(self, node):
        """Position of a node in :meth:`nodes`; coordinates are taken modulo N."""
        return self._numbers[tuple(x % self.N for x in node)]

    def shift_table(self, p):
        """The number of m + p, listed by the number of m."""
        return [self.number(self.add(m, p)) for m in self._nodes]

    def add(self, a, b):
        return tuple((x + y) % self.N for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.N for x, y in zip(a, b))

    def unit_step(self, axis, sign):
        return tuple(
            (sign % self.N) if i == axis - 1 else 0 for i in range(self.n)
        )

    def step_of(self, a, b):
        """(axis, sign) when b - a is a signed unit step, else None.

        Needs N >= 3 so that +e_j and -e_j stay distinct.
        """
        d = self.sub(b, a)
        axis = None
        for i, x in enumerate(d):
            if x == 0:
                continue
            if axis is not None:
                return None
            if x == 1 % self.N:
                axis, sign = i + 1, 1
            elif x == (-1) % self.N:
                axis, sign = i + 1, -1
            else:
                return None
        if axis is None:
            return None
        return axis, sign

    def __eq__(self, other):
        return isinstance(other, Torus) and (self.n, self.N) == (other.n, other.N)

    def __repr__(self):
        return f"Torus(n={self.n}, N={self.N})"


def grassmann_sort(keys):
    """Sort anticommuting generators: (sign, sorted keys), or None if one repeats.

    The sign is the parity of the permutation, found by counting inversions;
    a repeated generator makes the product zero.
    """
    keys = tuple(keys)
    if len(set(keys)) != len(keys):
        return None
    inversions = 0
    for i, key in enumerate(keys):
        for later in keys[i + 1:]:
            if key > later:
                inversions += 1
    return (-1 if inversions % 2 else 1), tuple(sorted(keys))


class Reduction:
    """The symmetric nearest-neighbour reduction: steps +-e_j only.

    ``neighbours[m][k]`` is the number of node m moved by the k-th step of
    :func:`allowed_steps`; ``k`` is also the step's generator key, since
    that list is in generator order.  ``_keys[m]`` inverts row m: it maps a
    neighbour's number to k.  Two reductions are equal when their tori are.
    """

    def __init__(self, torus):
        if torus.N < 3:
            raise ValueError("reductions need N >= 3")
        self.torus = torus
        shifts = [torus.shift_table(torus.unit_step(axis, sign))
                  for axis, sign in allowed_steps(torus)]
        self.neighbours = tuple(zip(*shifts))
        self._keys = tuple({b: k for k, b in enumerate(row)} for row in self.neighbours)

    def __eq__(self, other):
        if not isinstance(other, Reduction):
            return NotImplemented
        return self.torus == other.torus

    @cached_property
    def adjacency_form(self):
        """The adjacency form G, built by :func:`adjacency` on first use."""
        return adjacency(self)

    def canonicalize(self, path):
        """Normal form of a path of node numbers under the reduced calculus.

        Returns (sign, path) or None when the class is zero: a non-unit
        step or a repeated signed step kills the path; otherwise steps are
        sorted into generator order and the start node is kept.
        """
        if len(path) == 1:
            return 1, path
        if len(path) == 2:
            # one step: already in generator order
            return (1, path) if path[1] in self._keys[path[0]] else None
        keys = []
        for a, b in zip(path, path[1:]):
            key = self._keys[a].get(b)
            if key is None:
                return None
            keys.append(key)
        canon = grassmann_sort(keys)
        if canon is None:
            return None
        sgn, keys = canon
        node = path[0]
        nodes = [node]
        for key in keys:
            node = self.neighbours[node][key]
            nodes.append(node)
        return sgn, tuple(nodes)


def _valid_path(nodes):
    return all(map(ne, nodes, nodes[1:]))


def _decoded(key, M):
    """The tuple of node numbers that the int ``key`` codes in base M, below its leading 1."""
    path = []
    while key != 1:
        key, m = divmod(key, M)
        path.append(m)
    return tuple(reversed(path))


def _summed(pairs, den, reduction=None):
    """The fields ``(num, den)`` of a form summing (path, (re, im)) pairs over ``den``.

    Under a reduction each path is first put in canonical shape, its sign
    absorbed into the numerator; a path whose class is zero is skipped.
    """
    canonicalize = None if reduction is None else reduction.canonicalize
    num = {}
    for path, c in pairs:
        if canonicalize is not None:
            canon = canonicalize(path)
            if canon is None:
                continue
            sgn, path = canon
            if sgn < 0:
                c = (-c[0], -c[1])
        old = num.get(path)
        num[path] = c if old is None else (old[0] + c[0], old[1] + c[1])
    return lowest_terms(num, den)


class UForm:
    """Sparse association from node paths to Gaussian-rational coefficients.

    ``num`` maps each stored path, a tuple of node numbers, to the
    Gaussian-integer numerator ``(re, im)`` of its coefficient, all over the
    one denominator ``den``: the coefficient is ``(re + im*i) / den``.  No
    numerator is ``(0, 0)``, ``den > 0``, and ``gcd(den, every re and im)``
    is 1, with zero stored as ``({}, 1)``; so equal forms have equal fields.
    ``terms`` reads the coefficients as ``Scalar``s.  The constructor takes
    paths of coordinate tuples and :meth:`numbered` takes node numbers.
    Mixed path lengths are allowed; the derivative treats each stored path
    by its own degree.  When a reduction is attached every stored path is
    in canonical shape.
    """

    def __init__(self, torus, terms=None, reduction=None):
        number = torus.number
        self._fill(torus, reduction, (
            (tuple(map(number, path)), coeff)
            for path, coeff in (terms or {}).items()
        ))

    @classmethod
    def numbered(cls, torus, pairs, reduction=None):
        """The form summing (path of node numbers, scalar) pairs."""
        out = cls.__new__(cls)
        out._fill(torus, reduction, pairs)
        return out

    def _fill(self, torus, reduction, pairs):
        if reduction is not None and reduction.torus != torus:
            raise ValueError("reduction belongs to a different torus")
        self.torus = torus
        self.reduction = reduction
        triples = [(path, as_scalar(c).triple) for path, c in pairs if _valid_path(path)]
        den = lcm(*[d for _, (_, _, d) in triples])
        self.num, self.den = _summed((
            (path, (a * (den // d), b * (den // d))) for path, (a, b, d) in triples
        ), den, reduction)

    def _raw(self, num, den):
        out = UForm.__new__(UForm)
        out.torus, out.reduction, out.num, out.den = self.torus, self.reduction, num, den
        return out

    @property
    def terms(self):
        """The ``{path of node numbers: Scalar}`` dict of the form, built on each read."""
        den = self.den
        return {p: from_triple(a, b, den) for p, (a, b) in self.num.items()}

    # -- structure -------------------------------------------------------
    def _compatible(self, other):
        if self.torus != other.torus:
            raise ValueError("mismatched group size")
        if self.reduction != other.reduction:
            raise ValueError("mismatched reduction")

    def is_zero(self):
        return not self.num

    def degree(self):
        if not self.num:
            return 0
        degs = {len(p) - 1 for p in self.num}
        if len(degs) > 1:
            raise ValueError("form is not homogeneous")
        return degs.pop()

    def _linear(self, other, sign):
        """self + sign * other; stored paths are canonical already."""
        self._compatible(other)
        d, e = self.den, other.den
        den = lcm(d, e)
        f, g = den // d, sign * (den // e)
        return self._raw(*_summed(itertools.chain(
            ((p, (a * f, b * f)) for p, (a, b) in self.num.items()),
            ((p, (a * g, b * g)) for p, (a, b) in other.num.items()),
        ), den))

    def add(self, other):
        return self._linear(other, 1)

    def sub(self, other):
        return self._linear(other, -1)

    def scale(self, s):
        x, y, e = as_scalar(s).triple
        if not (x or y):
            return self._raw({}, 1)
        num = {p: (a * x - b * y, a * y + b * x) for p, (a, b) in self.num.items()}
        return self._raw(*lowest_terms(num, self.den * e))

    def neg(self):
        return self._raw({p: (-a, -b) for p, (a, b) in self.num.items()}, self.den)

    # -- algebra ---------------------------------------------------------
    @cached_property
    def _starts(self):
        """The paths by start node, each as (path after it, numerator)."""
        out = {}
        for q, c in self.num.items():
            out.setdefault(q[0], []).append((q[1:], c))
        return out

    @cached_property
    def _ends(self):
        """The paths by end node, each as (path, numerator)."""
        out = {}
        for p, c in self.num.items():
            out.setdefault(p[-1], []).append((p, c))
        return out

    def uproduct(self, other):
        """Concatenation product: b_{..,p} * b_{q,..} = delta_{pq} b_{..,p,..}.

        The loop runs over the terms of the smaller factor, each matched
        against the other factor's paths by end or start node, an index
        each form builds once.
        """
        self._compatible(other)
        if len(self.num) <= len(other.num):
            tails = other._starts
            pairs = (
                (p + tail, (a * x - b * y, a * y + b * x))
                for p, (a, b) in self.num.items()
                for tail, (x, y) in tails.get(p[-1], ())
            )
        else:
            heads = self._ends
            pairs = (
                (p + q[1:], (a * x - b * y, a * y + b * x))
                for q, (x, y) in other.num.items()
                for p, (a, b) in heads.get(q[0], ())
            )
        return self._raw(*_summed(pairs, self.den * other.den, self.reduction))

    def uderiv(self):
        """Alternating insertion sum over all nodes and slots, then the quotient.

        Node l inserted at slot s of a path (before its s-th node) gives
        (-1)^s times the longer path, for every node l.  A node equal to a
        neighbour of the slot makes the same longer path as that neighbour
        inserted at the adjacent slot, with the opposite sign, so the two
        cancel within the path's own loop.  Without a reduction each stored
        path of r nodes is coded once as an int in base M = N^n, a leading
        digit 1 followed by its node numbers: the 1 keeps apart paths of
        different lengths and paths that start at node 0.  With P = M^(r-s),
        the head (the 1 and the first s nodes) and the tail are
        ``divmod(code, P)``, and the insertion of l is the int
        ``head*M*P + l*P + tail``, so the keys of one slot step through a
        range by P.  The numerators are summed under those int keys, a sum
        dropped as soon as it cancels, and the keys are read back into
        tuples of node numbers once, at the end.  Under a reduction see
        :meth:`_reduced_uderiv`.
        """
        if self.reduction is not None:
            return self._reduced_uderiv()
        M = len(self.torus.nodes())
        num = {}
        get = num.get
        for path, (a, b) in self.num.items():
            code = 1
            for m in path:
                code = code * M + m
            r = len(path)
            P = M ** r
            for s in range(r + 1):
                head, tail = divmod(code, P)
                base = head * M * P + tail
                c0, c1 = c = (a, b) if s % 2 == 0 else (-a, -b)
                for key in range(base, base + M * P, P):
                    old = get(key)
                    if old is None:
                        num[key] = c
                    else:
                        # a sum that cancels goes at once: d(d w) cancels wholesale,
                        # and dead entries would grow the dict to every path touched
                        x, y = old[0] + c0, old[1] + c1
                        if x or y:
                            num[key] = (x, y)
                        else:
                            del num[key]
                P //= M
        return self._raw(*lowest_terms({_decoded(key, M): c for key, c in num.items()},
                                       self.den))

    def _reduced_uderiv(self):
        """The derivative under a reduction: the insertion at the two ends of a path.

        The neighbours of its first node go in at slot 0 and those of its
        last node at the end.  Any other node makes a non-unit step, and an
        interior insertion splits a unit step e into two unit steps only at
        N = 3, as -e twice, a repeated step: the quotient kills every such
        path.  An end neighbour whose step the path already takes also
        repeats it, so it is skipped before its insertion is built.
        """
        red = self.reduction
        keys, neighbours = red._keys, red.neighbours

        def pairs():
            for path, (a, b) in self.num.items():
                used = {keys[m][l] for m, l in zip(path, path[1:])}
                first, last = path[0], path[-1]
                for l in neighbours[first]:
                    if keys[l][first] not in used:
                        yield (l,) + path, (a, b)
                signed = (a, b) if len(path) % 2 == 0 else (-a, -b)
                for k, l in enumerate(neighbours[last]):
                    if k not in used:
                        yield path + (l,), signed

        return self._raw(*_summed(pairs(), self.den, red))

    def translate(self, p):
        """Left translation: every node of every path moves by p."""
        shift = self.torus.shift_table(p)
        return self._raw({
            tuple(shift[m] for m in path): c for path, c in self.num.items()
        }, self.den)

    def __eq__(self, other):
        if not isinstance(other, UForm):
            return NotImplemented
        self._compatible(other)
        return self.den == other.den and self.num == other.num

    __hash__ = None

    def _coordinates(self, path):
        nodes = self.torus.nodes()
        return tuple(nodes[m] for m in path)

    def coordinate_terms(self):
        """The (path of coordinate tuples, scalar) pairs of the form."""
        return [(self._coordinates(p), c) for p, c in self.terms.items()]

    def first_term(self):
        """The shortest, then lexicographically first, path and its scalar."""
        if not self.num:
            return None
        p = min(self.num, key=lambda q: (len(q), q))
        return self._coordinates(p), from_triple(*self.num[p], self.den)

    def __repr__(self):
        if not self.num:
            return "UForm(0)"
        bits = []
        for p in sorted(self.num, key=lambda q: (len(q), q))[:4]:
            c = from_triple(*self.num[p], self.den)
            bits.append(f"{c.to_text()}*b{list(self._coordinates(p))}")
        more = "" if len(self.num) <= 4 else f" ... ({len(self.num)} terms)"
        return "UForm(" + " + ".join(bits) + more + ")"


# ---------------------------------------------------------------------------
# Constructors and named forms.

def upath_form(torus, nodes, reduction=None):
    """Basis path form with coefficient one; degenerate input gives zero."""
    return UForm(torus, {tuple(nodes): ONE}, reduction)


def delta_form(torus, node, reduction=None):
    return upath_form(torus, (tuple(node),), reduction)


def function_form(torus, values, reduction=None):
    """The 0-form sum_l f_l b_l from a mapping node -> scalar."""
    return UForm(torus, {(tuple(m),): as_scalar(c) for m, c in values.items()}, reduction)


def unit_form(torus, reduction=None):
    return UForm.numbered(
        torus, (((m,), ONE) for m in range(len(torus.nodes()))), reduction
    )


def theta(torus, direction, reduction=None):
    """The left-invariant 1-form: sum over m of the edge m -> m + direction."""
    direction = tuple(direction)
    if all(x % torus.N == 0 for x in direction):
        raise ValueError("theta needs a nonzero direction")
    if reduction is not None and torus.step_of((0,) * torus.n, direction) is None:
        raise ValueError("direction is not an allowed step of the reduction")
    shift = torus.shift_table(direction)
    return UForm.numbered(
        torus, (((m, end), ONE) for m, end in enumerate(shift)), reduction
    )


def allowed_steps(torus):
    """The 2n signed unit steps in generator order."""
    out = []
    for axis in range(1, torus.n + 1):
        out.append((axis, -1))
    for axis in range(1, torus.n + 1):
        out.append((axis, 1))
    return out


def adjacency(reduction):
    """The adjacency form: the sum of the 2n invariant 1-forms.

    Each form's edges m -> m + step are read from the neighbour table, one
    step after another in generator order.
    """
    pairs = (
        ((m, end), ONE)
        for shift in zip(*reduction.neighbours)
        for m, end in enumerate(shift)
    )
    return UForm.numbered(reduction.torus, pairs, reduction)


def g_power(reduction, r):
    if r < 1:
        raise ValueError("power must be at least 1")
    g = reduction.adjacency_form
    out = g
    for _ in range(r - 1):
        out = out.uproduct(g)
    return out


def check_graded_bracket(omega):
    """Residual of  d w - (G w - (-1)^r w G)  for a homogeneous reduced form.

    In the reduced calculus the exterior derivative is the graded bracket
    with the adjacency form; this check decides that exactly.
    """
    if omega.reduction is None:
        raise ValueError("theorem check needs the symmetric reduction")
    r = omega.degree()
    g = omega.reduction.adjacency_form
    lhs = omega.uderiv()
    rhs = g.uproduct(omega)
    tail = omega.uproduct(g)
    rhs = rhs.sub(tail) if r % 2 == 0 else rhs.add(tail)
    return lhs.sub(rhs)


def commutator_with_adjacency(f):
    """[G, f] for a 0-form f in the reduced calculus."""
    if f.reduction is None:
        raise ValueError("needs the symmetric reduction")
    g = f.reduction.adjacency_form
    return g.uproduct(f).sub(f.uproduct(g))


def random_uform(torus, degree, rng, reduction=None, terms=3):
    """Random homogeneous form with small integer coefficients."""
    out = {}
    nodes = range(len(torus.nodes()))
    attempts = 0
    while len(out) < terms and attempts < 50 * terms:
        attempts += 1
        path = [rng.choice(nodes)]
        ok = True
        for _ in range(degree):
            if reduction is None:
                nxt = rng.choice(nodes)
                if nxt == path[-1]:
                    ok = False
                    break
            else:
                # one draw among the 2n steps, in generator order
                nxt = rng.choice(reduction.neighbours[path[-1]])
            path.append(nxt)
        if not ok:
            continue
        out[tuple(path)] = Scalar(rng.randint(-4, 4), rng.randint(-2, 2))
    return UForm.numbered(torus, out.items(), reduction)

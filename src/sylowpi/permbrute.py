"""Brute-force ground truth for D_pi on small groups.

Small groups are realized as permutation groups, the full subgroup lattice
is enumerated up to conjugacy (cyclic seeds, then joins of class
representatives with single elements), and E_pi / D_pi are decided by
definition: D_pi holds exactly when all maximal pi-subgroups form a single
conjugacy class.

Everything interesting happens on element indices against a cached
multiplication table (numpy), so degrees stay tiny and orders stay below
explicit bounds: ORDER_BOUND for materializing a group at all, and a
lattice bound for whole-lattice operations.  The lattice bound is checked
when the multiplication table is first built: DEFAULT_LATTICE_BOUND unless
the caller builds it first with `require_table(bound=...)`.  The table
holds int16 indices, so one at ORDER_BOUND takes 10080^2 * 2 B, about 203 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import is_prime, prime_divisors, r_part
from .catalog import SimpleGroupId, facts, parse_group, prime_power
from .composition import CyclicFactor

ORDER_BOUND = 10080
DEFAULT_LATTICE_BOUND = 1000
# multiplication tables and inverses hold element indices as int16
assert ORDER_BOUND <= np.iinfo(np.int16).max + 1


class BruteForceBoundError(ValueError):
    """A requested computation exceeds the configured size bounds."""


class ElementListError(ValueError):
    """An explicit element list is not the group its generators generate."""


def pi_part(m: int, pi) -> int:
    out = 1
    for p in pi:
        out *= r_part(m, p)
    return out


# ---------------------------------------------------------------------------
# permutations as tuples

def identity_perm(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def pmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a followed by b."""
    return tuple(b[x] for x in a)


def pinv(a: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def perm_order(a: tuple[int, ...]) -> int:
    seen = [False] * len(a)
    out = 1
    for i in range(len(a)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = a[j]
            length += 1
        out = math.lcm(out, length)
    return out


def tuple_closure(gens, degree: int, bound: int = ORDER_BOUND) -> set[tuple[int, ...]]:
    """Subgroup generated by gens, as a set of permutation tuples."""
    ident = identity_perm(degree)
    gens = [tuple(g) for g in gens if tuple(g) != ident]
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                z = pmul(x, g)
                if z not in elems:
                    elems.add(z)
                    nxt.append(z)
        if len(elems) > bound:
            raise BruteForceBoundError(
                f"group order exceeds the bound {bound}; refusing to materialize")
        frontier = nxt
    return elems


# ---------------------------------------------------------------------------
# groups

@dataclass
class SubgroupClass:
    """One conjugacy class of subgroups: a representative (as a frozenset
    of element indices), a generating set for it, and every conjugate set."""
    rep: frozenset[int]
    gens: tuple[int, ...]
    order: int
    class_size: int
    all_sets: tuple[frozenset[int], ...]


@dataclass
class HallReport:
    pi: frozenset[int]
    pi_effective: frozenset[int]
    hall_order: int
    epi: bool
    dpi: bool
    maximal_classes: list[SubgroupClass]
    structural: dict | None = None


class PermGroup:
    """Immutable permutation group with materialized element list."""

    def __init__(self, degree: int, generators, elements=None, name: str = ""):
        self.degree = degree
        self.generators = tuple(tuple(g) for g in generators)
        for g in self.generators:
            if sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of degree {degree}: {g}")
        if elements is None:
            elements = tuple_closure(self.generators, degree)
        if len(elements) > ORDER_BOUND:
            raise BruteForceBoundError(
                f"order {len(elements)} exceeds the hard bound {ORDER_BOUND}")
        self.elements: list[tuple[int, ...]] = sorted(elements)
        self.order = len(self.elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.identity = self.index[identity_perm(degree)]
        self.name = name or f"group of order {self.order} on {degree} points"
        self._table: np.ndarray | None = None
        self._inv: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._conj_perms: dict[int, np.ndarray] = {}
        self._gen_idx: tuple[int, ...] | None = None
        self._classes: list[SubgroupClass] | None = None

    # -- basic machinery ----------------------------------------------------

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            self._orders = np.array([perm_order(e) for e in self.elements])
        return self._orders

    def gen_indices(self) -> tuple[int, ...]:
        if self._gen_idx is None:
            idx = []
            for g in self.generators:
                i = self.index[g]
                if i != self.identity and i not in idx:
                    idx.append(i)
            self._gen_idx = tuple(idx)
        return self._gen_idx

    def require_table(self, bound: int | None = None) -> np.ndarray:
        if self._table is None:
            bound = DEFAULT_LATTICE_BOUND if bound is None else bound
            if self.order > bound:
                raise BruteForceBoundError(
                    f"order {self.order} exceeds the lattice bound {bound} "
                    "(pass --max-order to raise it)")
            self._table = self._cayley_table()
            self._inv = _table_inverses(self._table, self.identity)
        return self._table

    def _cayley_table(self) -> np.ndarray:
        """table[i, j] = index of (element i followed by element j), built
        row by row along the left Cayley graph: row s*i is left_s[row i],
        because (s*i)*x = s*(i*x).  The lookups prove the element list closed
        under left multiplication by the generators and the search proves
        every element a word in them, so the list is exactly <generators>."""
        n = self.order
        try:
            lefts = [np.array([self.index[pmul(s, e)] for e in self.elements], dtype=np.int16)
                     for s in self.generators]
        except KeyError:
            raise ElementListError(f"{self.name}: the element list is not closed "
                                   "under its generators") from None
        table = np.empty((n, n), dtype=np.int16)
        table[self.identity] = np.arange(n)
        reached = np.zeros(n, dtype=bool)
        reached[self.identity] = True
        rows = [self.identity]
        for i in rows:  # breadth-first; rows grows while it is walked
            for left in lefts:
                j = int(left[i])
                if not reached[j]:
                    reached[j] = True
                    table[j] = left[table[i]]
                    rows.append(j)
        if len(rows) != n:
            raise ElementListError(
                f"{self.name}: the generators reach only {len(rows)} "
                f"of the {n} listed elements")
        return table

    @property
    def inv(self) -> np.ndarray:
        self.require_table()
        return self._inv

    def conj_perm(self, g: int) -> np.ndarray:
        """Array cp with cp[h] = index of g^-1 h g."""
        if g not in self._conj_perms:
            t = self.require_table()
            self._conj_perms[g] = t[t[self.inv[g], :], g]
        return self._conj_perms[g]

    def closure_indices(self, gen_idx) -> frozenset[int]:
        """Subgroup generated by element indices."""
        t = self.require_table()
        gens = sorted({g for g in gen_idx if g != self.identity})
        members = {self.identity}
        if not gens:
            return frozenset(members)
        garr = np.array(gens, dtype=np.int32)
        frontier = np.array([self.identity], dtype=np.int32)
        mask = np.zeros(self.order, dtype=bool)
        mask[self.identity] = True
        while frontier.size:
            prods = t[np.ix_(frontier, garr)].ravel()
            new = np.unique(prods)
            new = new[~mask[new]]
            mask[new] = True
            members.update(new.tolist())
            frontier = new
        return frozenset(members)

    def gens_of(self, subset) -> tuple[int, ...]:
        """Small generating set for a subgroup given as an element-index set."""
        current: frozenset[int] = frozenset({self.identity})
        gens: list[int] = []
        # larger element orders first keeps the generating set short
        orders = self.element_orders()
        for x in sorted(subset, key=lambda i: -int(orders[i])):
            if x not in current:
                gens.append(x)
                current = self.closure_indices(tuple(gens))
                if len(current) == len(subset):
                    break
        return tuple(gens)

    def _commutator(self, a: int, b: int) -> int:
        t = self.require_table()
        inv = self.inv
        return int(t[t[t[inv[a], inv[b]], a], b])

    # -- subgroup lattice ---------------------------------------------------

    def subgroup_classes(self) -> list[SubgroupClass]:
        """All subgroups up to conjugacy (cyclic-seed join closure)."""
        if self._classes is not None:
            return self._classes
        t = self.require_table()
        n = self.order
        gcps = [self.conj_perm(g) for g in self.gen_indices()]

        seen: dict[frozenset[int], int] = {}
        classes: list[SubgroupClass] = []

        def register(rep: frozenset[int], gens: tuple[int, ...]) -> int:
            orbit = {rep}
            queue = [rep]
            while queue:
                s = queue.pop()
                arr = np.fromiter(s, dtype=np.int32, count=len(s))
                for cp in gcps:
                    s2 = frozenset(cp[arr].tolist())
                    if s2 not in orbit:
                        orbit.add(s2)
                        queue.append(s2)
            idx = len(classes)
            for s in orbit:
                seen[s] = idx
            classes.append(SubgroupClass(rep, gens, len(rep), len(orbit), tuple(orbit)))
            return idx

        register(frozenset({self.identity}), ())
        for x in range(n):
            if x == self.identity:
                continue
            cyc = set()
            y = x
            while y not in cyc:
                cyc.add(y)
                y = int(t[y, x])
            cyc.add(self.identity)
            fs = frozenset(cyc)
            if fs not in seen:
                register(fs, (x,))

        worklist = list(range(1, len(classes)))
        while worklist:
            i = worklist.pop()
            cls = classes[i]
            if cls.order == n:
                continue
            hcps = [self.conj_perm(g) for g in cls.gens]
            for x in _orbit_reps(hcps, n):
                if x in cls.rep:
                    continue
                ext = self.closure_indices(cls.gens + (x,))
                if ext in seen:
                    continue
                worklist.append(register(ext, cls.gens + (x,)))

        classes.sort(key=lambda c: (c.order, sorted(c.rep)))
        self._classes = classes
        return classes

    # -- structure tests on element-index sets ------------------------------

    def normal_closure_in(self, seeds, ambient_gens) -> frozenset[int]:
        gens = {s for s in seeds if s != self.identity}
        while True:
            cur = self.closure_indices(tuple(gens))
            arr = np.fromiter(cur, dtype=np.int32, count=len(cur))
            grown = False
            for g in ambient_gens:
                extra = set(self.conj_perm(g)[arr].tolist()) - cur
                if extra:
                    gens |= extra
                    grown = True
            if not grown:
                return cur

    def derived_subgroup(self, subset) -> frozenset[int]:
        kgens = self.gens_of(subset)
        comms = {self._commutator(a, b) for a in kgens for b in kgens}
        return self.normal_closure_in(comms, kgens)

    def is_solvable_set(self, subset) -> bool:
        cur = frozenset(subset)
        while len(cur) > 1:
            der = self.derived_subgroup(cur)
            if len(der) == len(cur):
                return False
            cur = der
        return True

    def sylow_in(self, subset, p: int) -> frozenset[int]:
        """A Sylow p-subgroup of the subgroup given by `subset`."""
        t = self.require_table()
        target = r_part(len(subset), p)
        if target == 1:
            return frozenset({self.identity})
        orders = self.element_orders()
        karr = np.fromiter(subset, dtype=np.int32, count=len(subset))
        # seed with a p-element
        seed = None
        for x in karr.tolist():
            o = int(orders[x])
            if o % p == 0:
                seed = _power(t, x, o // r_part(o, p))
                break
        P = self.closure_indices((seed,))
        pgens = [seed]
        while len(P) < target:
            parr = np.fromiter(P, dtype=np.int32, count=len(P))
            # normalizer of P inside the subgroup
            norm = [k for k in karr.tolist()
                    if frozenset(self.conj_perm(k)[parr].tolist()) == P]
            found = False
            for y in norm:
                if y in P:
                    continue
                # order of y modulo P
                z, steps = y, 1
                while z not in P:
                    z = int(t[z, y])
                    steps += 1
                if steps % p == 0:
                    y2 = _power(t, y, steps // p)
                    pgens.append(y2)
                    P = self.closure_indices(tuple(pgens))
                    found = True
                    break
            if not found:  # cannot happen for a genuine subgroup
                raise RuntimeError("Sylow ascent stalled; input was not a subgroup")
        return P

    def is_nilpotent_set(self, subset) -> bool:
        """Nilpotent iff every Sylow subgroup is normal."""
        kgens = self.gens_of(subset)
        for p in prime_divisors(len(subset)):
            P = self.sylow_in(subset, p)
            parr = np.fromiter(P, dtype=np.int32, count=len(P))
            for g in kgens:
                if frozenset(self.conj_perm(g)[parr].tolist()) != P:
                    return False
        return True

    def is_normal_set(self, subset) -> bool:
        arr = np.fromiter(subset, dtype=np.int32, count=len(subset))
        fs = frozenset(subset)
        return all(frozenset(self.conj_perm(g)[arr].tolist()) == fs
                   for g in self.gen_indices())

    def quotient(self, normal_subset) -> tuple["PermGroup", np.ndarray]:
        """Coset action on the right cosets of a normal subgroup.

        Returns the quotient group and the element-index -> coset-point map.
        """
        if not self.is_normal_set(normal_subset):
            raise ValueError("subgroup is not normal")
        t = self.require_table()
        n = self.order
        aarr = np.fromiter(normal_subset, dtype=np.int32, count=len(normal_subset))
        coset_of = np.full(n, -1, dtype=np.int32)
        reps = []
        for x in range(n):
            if coset_of[x] >= 0:
                continue
            coset_of[t[aarr, x]] = len(reps)
            reps.append(x)
        k = len(reps)
        gen_perms = []
        for s in self.gen_indices():
            gen_perms.append(tuple(int(coset_of[t[rep, s]]) for rep in reps))
        if not gen_perms:
            gen_perms = [identity_perm(k)]
        q = PermGroup(k, gen_perms, name=f"{self.name} / N (order {len(normal_subset)})")
        return q, coset_of


def _table_inverses(table: np.ndarray, identity: int) -> np.ndarray:
    """inv[i] = the column holding the identity in row i, found 256 rows at
    a time so that no n^2 temporary is made."""
    inv = np.empty(len(table), dtype=np.int16)
    for lo in range(0, len(table), 256):
        rows, cols = np.nonzero(table[lo:lo + 256] == identity)
        inv[lo + rows] = cols
    return inv


def _power(table: np.ndarray, x: int, k: int) -> int:
    """x^k by repeated table multiplication (k small)."""
    acc = None
    for _ in range(k):
        acc = x if acc is None else int(table[acc, x])
    if acc is None:
        raise ValueError("k must be >= 1")
    return acc


def _orbit_reps(perms: list[np.ndarray], n: int) -> list[int]:
    """Orbit representatives of the group generated by index permutations."""
    if not perms:
        return list(range(n))
    visited = np.zeros(n, dtype=bool)
    reps = []
    for i in range(n):
        if visited[i]:
            continue
        reps.append(i)
        stack = [i]
        visited[i] = True
        while stack:
            x = stack.pop()
            for cp in perms:
                y = int(cp[x])
                if not visited[y]:
                    visited[y] = True
                    stack.append(y)
    return reps


# ---------------------------------------------------------------------------
# realizations

_REALIZE_CACHE: dict = {}

PSL2_FIELDS = (4, 5, 7, 8, 9, 11)
_IRREDUCIBLE = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1)}  # low degree first


class _GF:
    """Tiny finite field with dense add/mul tables."""

    def __init__(self, q: int):
        p, f = prime_power(q)
        self.q, self.p = q, p
        if f == 1:
            self.add = [[(a + b) % p for b in range(q)] for a in range(q)]
            self.mul = [[(a * b) % p for b in range(q)] for a in range(q)]
        else:
            irr = _IRREDUCIBLE[q]
            digits = [self._digits(a, p, f) for a in range(q)]

            def poly_mul(u, v):
                out = [0] * (2 * f - 1)
                for i, ui in enumerate(u):
                    for j, vj in enumerate(v):
                        out[i + j] = (out[i + j] + ui * vj) % p
                for k in range(len(out) - 1, f - 1, -1):
                    c = out[k]
                    if c:
                        out[k] = 0
                        for i in range(f):
                            out[k - f + i] = (out[k - f + i] - c * irr[i]) % p
                return tuple(out[:f])

            enc = {tuple(d): a for a, d in enumerate(digits)}
            self.add = [[enc[tuple((x + y) % p for x, y in zip(digits[a], digits[b]))]
                         for b in range(q)] for a in range(q)]
            self.mul = [[enc[poly_mul(digits[a], digits[b])] for b in range(q)]
                        for a in range(q)]
        self.neg = [next(b for b in range(q) if self.add[a][b] == 0) for a in range(q)]
        self.inv = [0] + [next(b for b in range(1, q) if self.mul[a][b] == 1)
                          for a in range(1, q)]

    @staticmethod
    def _digits(a: int, p: int, f: int) -> list[int]:
        out = []
        for _ in range(f):
            out.append(a % p)
            a //= p
        return out


def _psl2(q: int) -> PermGroup:
    """PSL(2, q) acting on the projective line (q + 1 points, infinity last)."""
    F = _GF(q)
    inf = q
    perms = set()
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    det = F.add[F.mul[a][d]][F.neg[F.mul[b][c]]]
                    if det != 1:
                        continue
                    img = []
                    for x in range(q):
                        num = F.add[F.mul[a][x]][b]
                        den = F.add[F.mul[c][x]][d]
                        img.append(F.mul[num][F.inv[den]] if den else inf)
                    img.append(F.mul[a][F.inv[c]] if c else inf)
                    perms.add(tuple(img))
    expected = q * (q * q - 1) // math.gcd(2, q - 1)
    if len(perms) != expected:
        raise RuntimeError(f"PSL(2,{q}) realization has order {len(perms)}, "
                           f"expected {expected}")
    return PermGroup(q + 1, _greedy_gens(perms, q + 1), elements=perms,
                     name=f"PSL(2,{q})")


def _greedy_gens(elements, degree: int) -> list[tuple[int, ...]]:
    ident = identity_perm(degree)
    gens: list[tuple[int, ...]] = []
    current = {ident}
    for e in sorted(elements, key=lambda t: (-perm_order(t), t)):
        if e not in current:
            gens.append(e)
            current = tuple_closure(gens, degree)
            if len(current) == len(elements):
                break
    return gens


def _alt(n: int) -> PermGroup:
    a = tuple([1, 2, 0] + list(range(3, n)))
    if n % 2 == 1:
        b = tuple(list(range(1, n)) + [0])
    else:
        b = tuple([0] + list(range(2, n)) + [1])
    return PermGroup(n, [a, b], name=f"Alt({n})")


def _sym(n: int) -> PermGroup:
    a = tuple([1, 0] + list(range(2, n)))
    b = tuple(list(range(1, n)) + [0])
    return PermGroup(n, [a, b], name=f"Sym({n})")


def _cyclic(p: int) -> PermGroup:
    g = tuple(list(range(1, p)) + [0])
    return PermGroup(p, [g], name=f"Cyclic({p})")


def direct_product(g1: PermGroup, g2: PermGroup) -> PermGroup:
    d1, d2 = g1.degree, g2.degree
    gens = [tuple(g) + tuple(x + d1 for x in range(d2)) for g in g1.generators]
    gens += [tuple(range(d1)) + tuple(x + d1 for x in g) for g in g2.generators]
    if g1.order * g2.order > ORDER_BOUND:
        raise BruteForceBoundError(
            f"product order {g1.order * g2.order} exceeds the bound {ORDER_BOUND}")
    # already sorted; the table's reach check proves it is <gens>
    shifted = [tuple(x + d1 for x in b) for b in g2.elements]
    elements = [a + b for a in g1.elements for b in shifted]
    return PermGroup(d1 + d2, gens, elements=elements, name=f"{g1.name} x {g2.name}")


def realize(spec) -> PermGroup:
    """Realize a built-in group: Alt/Sym(5..7), PSL(2,q) for small q,
    Cyclic(p) for p <= 31, and direct products of those (lists/tuples)."""
    key = _spec_key(spec)
    if key in _REALIZE_CACHE:
        return _REALIZE_CACHE[key]
    g = _realize_uncached(spec)
    _REALIZE_CACHE[key] = g
    return g


def _spec_key(spec):
    if isinstance(spec, (list, tuple)):
        return ("product",) + tuple(_spec_key(s) for s in spec)
    if isinstance(spec, SimpleGroupId):
        return spec.spec()
    if isinstance(spec, CyclicFactor):
        return spec.spec()
    return str(spec)


def _realize_uncached(spec) -> PermGroup:
    if isinstance(spec, (list, tuple)):
        groups = [realize(s) for s in spec]
        out = groups[0]
        for h in groups[1:]:
            out = direct_product(out, h)
        return out
    if isinstance(spec, CyclicFactor):
        return _cyclic_checked(spec.p)
    if isinstance(spec, str):
        s = spec.strip()
        if "," in s:
            return _realize_uncached([part for part in s.split(",") if part.strip()])
        if s.startswith("Cyclic:"):
            return _cyclic_checked(int(s.split(":", 1)[1]))
        if s.startswith("Sym:"):
            n = int(s.split(":", 1)[1])
            if not 5 <= n <= 7:
                raise BruteForceBoundError(f"Sym({n}) is not a built-in realization")
            return _sym(n)
        return _realize_uncached(parse_group(s))
    gid: SimpleGroupId = spec
    if gid.family == "Alt":
        if not 5 <= gid.n <= 7:
            raise BruteForceBoundError(f"Alt({gid.n}) is not a built-in realization")
        g = _alt(gid.n)
    elif gid.family == "Lie" and gid.lie_type == "A" and gid.n == 2 and gid.q in PSL2_FIELDS:
        g = _psl2(gid.q)
    else:
        raise BruteForceBoundError(f"no built-in realization for {gid}")
    expected = facts(gid).order
    if g.order != expected:
        raise RuntimeError(f"realization of {gid} has order {g.order}, "
                           f"expected {expected}")
    return g


def _cyclic_checked(p: int) -> PermGroup:
    if not (2 <= p <= 31 and is_prime(p)):
        raise BruteForceBoundError(f"Cyclic({p}) needs a prime p <= 31")
    return _cyclic(p)


# ---------------------------------------------------------------------------
# pi-subgroup analysis

def _contained_up_to_conjugacy(a: SubgroupClass, b: SubgroupClass) -> bool:
    if b.order % a.order != 0:
        return False
    return any(s <= b.rep for s in a.all_sets)


def maximal_pi_subgroups(g: PermGroup, pi, with_structure: bool = True) -> HallReport:
    """Conjugacy classes of maximal pi-subgroups and the E_pi/D_pi verdict."""
    pi = frozenset(pi)
    classes = g.subgroup_classes()
    pi_classes = [c for c in classes if prime_divisors(c.order) <= pi]
    maximal = []
    for c in pi_classes:
        if not any(d is not c and d.order > c.order and _contained_up_to_conjugacy(c, d)
                   for d in pi_classes):
            maximal.append(c)
    hall_order = pi_part(g.order, pi)
    epi = any(c.order == hall_order for c in maximal)
    dpi = len(maximal) == 1
    report = HallReport(
        pi=pi,
        pi_effective=pi & prime_divisors(g.order),
        hall_order=hall_order,
        epi=epi,
        dpi=dpi,
        maximal_classes=maximal,
    )
    if epi and with_structure:
        report.structural = _structural_flags(g, report, pi_classes)
    return report


def _find_hall_inside(g: PermGroup, pi_classes, host: frozenset[int],
                      sub_pi: frozenset[int]) -> frozenset[int] | None:
    """A sub_pi-Hall subgroup of the subgroup `host`, if one exists."""
    want = pi_part(len(host), sub_pi)
    for c in pi_classes:
        if c.order != want or not prime_divisors(c.order) <= sub_pi:
            continue
        for s in c.all_sets:
            if s <= host:
                return s
    # the trivial subgroup always works when the target order is 1
    return frozenset({g.identity}) if want == 1 else None


def _two_part_partitions(primes: frozenset[int]):
    primes = sorted(primes)
    if len(primes) < 2:
        return
    rest = primes[1:]
    for mask in range(2 ** len(rest) - 1):
        sigma = {primes[0]} | {p for i, p in enumerate(rest) if mask >> i & 1}
        tau = set(rest) - sigma
        yield frozenset(sigma), frozenset(tau)


def _structural_flags(g: PermGroup, report: HallReport, pi_classes) -> dict:
    hall_classes = [c for c in report.maximal_classes if c.order == report.hall_order]
    solvable = all(g.is_solvable_set(c.rep) for c in hall_classes)
    partitions = {}
    for sigma, tau in _two_part_partitions(report.pi_effective):
        ok = True
        for c in hall_classes:
            s_hall = _find_hall_inside(g, pi_classes, c.rep, sigma)
            t_hall = _find_hall_inside(g, pi_classes, c.rep, tau)
            has_nilpotent = ((s_hall is not None and g.is_nilpotent_set(s_hall))
                             or (t_hall is not None and g.is_nilpotent_set(t_hall)))
            ok = ok and has_nilpotent
        key = (tuple(sorted(sigma)), tuple(sorted(tau)))
        partitions[key] = ok
    return {"hall_solvable": solvable, "nilpotent_factor_per_partition": partitions}


def is_dpi_brute(g: PermGroup, pi) -> bool:
    return maximal_pi_subgroups(g, pi, with_structure=False).dpi


def verify_hall_inheritance(g: PermGroup, normal_subset, pi) -> bool:
    """Every pi-Hall subgroup H meets a normal subgroup A in a pi-Hall
    subgroup of A, and maps onto a pi-Hall subgroup of G/A."""
    pi = frozenset(pi)
    normal_subset = frozenset(normal_subset)
    if not g.is_normal_set(normal_subset):
        raise ValueError("subgroup is not normal")
    report = maximal_pi_subgroups(g, pi, with_structure=False)
    if not report.epi:
        raise ValueError("group has no pi-Hall subgroup; precondition violated")
    hall_classes = [c for c in report.maximal_classes if c.order == report.hall_order]
    q, coset_of = g.quotient(normal_subset)
    a_hall = pi_part(len(normal_subset), pi)
    q_hall = pi_part(q.order, pi)
    for c in hall_classes:
        h = c.rep
        if len(h & normal_subset) != a_hall:
            return False
        image_points = {int(coset_of[x]) for x in h}
        if len(image_points) != q_hall:
            return False
        # realize the image inside the coset-action group and re-check there
        t = g.require_table()
        coset_rep = [0] * q.order
        for x in range(g.order - 1, -1, -1):
            coset_rep[int(coset_of[x])] = x
        image_gens = []
        for hg in g.gens_of(h):
            # permutation induced on all cosets by right multiplication
            image_gens.append(tuple(int(coset_of[t[coset_rep[cid], hg]])
                                    for cid in range(q.order)))
        image_order = len(tuple_closure(image_gens, q.order))
        if image_order != q_hall:
            return False
    return True


def split_hall(g: PermGroup, hall_subset, sigma, tau) -> tuple[frozenset[int], frozenset[int]] | None:
    """Decompose a Hall subgroup as (sigma-part) x (tau-part), if it does."""
    sigma, tau = frozenset(sigma), frozenset(tau)
    orders = g.element_orders()
    h = frozenset(hall_subset)
    s_part = frozenset(x for x in h if prime_divisors(int(orders[x])) <= sigma)
    t_part = frozenset(x for x in h if prime_divisors(int(orders[x])) <= tau)
    if len(s_part) != pi_part(len(h), sigma) or len(t_part) != pi_part(len(h), tau):
        return None
    if g.closure_indices(tuple(s_part)) != s_part:
        return None
    if g.closure_indices(tuple(t_part)) != t_part:
        return None
    return s_part, t_part


def check_final_corollary(g: PermGroup, pi, sigma, tau) -> bool | None:
    """If some pi-Hall subgroup splits as sigma-part x tau-part and both
    D_sigma and D_tau hold, at least one factor must be nilpotent.
    Returns None when the hypotheses do not apply."""
    sigma, tau = frozenset(sigma), frozenset(tau)
    if sigma & tau:
        raise ValueError("sigma and tau overlap")
    report = maximal_pi_subgroups(g, frozenset(pi), with_structure=False)
    if not report.epi:
        return None
    if not (is_dpi_brute(g, sigma) and is_dpi_brute(g, tau)):
        return None
    applicable = False
    ok = True
    for c in report.maximal_classes:
        if c.order != report.hall_order:
            continue
        parts = split_hall(g, c.rep, sigma, tau)
        if parts is None:
            continue
        applicable = True
        s_part, t_part = parts
        ok = ok and (g.is_nilpotent_set(s_part) or g.is_nilpotent_set(t_part))
    return ok if applicable else None


# ---------------------------------------------------------------------------
# constructive reproduction of the symmetric-group table rows

def reproduce_table1(n: int) -> bool:
    """Rebuild the {2,3}-Hall subgroup of Sym_n for n = 7 (Sym_3 x Sym_4)
    or n = 8 (Sym_4 wr Sym_2) and verify order and Hall property."""
    if n == 7:
        gens = [
            (1, 0, 2, 3, 4, 5, 6),          # (0 1)
            (1, 2, 0, 3, 4, 5, 6),          # (0 1 2)
            (0, 1, 2, 4, 3, 5, 6),          # (3 4)
            (0, 1, 2, 4, 5, 6, 3),          # (3 4 5 6)
        ]
        expected = 144
    elif n == 8:
        gens = [
            (1, 0, 2, 3, 4, 5, 6, 7),       # (0 1)
            (1, 2, 3, 0, 4, 5, 6, 7),       # (0 1 2 3)
            (0, 1, 2, 3, 5, 4, 6, 7),       # (4 5)
            (0, 1, 2, 3, 5, 6, 7, 4),       # (4 5 6 7)
            (4, 5, 6, 7, 0, 1, 2, 3),       # block swap
        ]
        expected = 1152
    else:
        raise ValueError("only degrees 7 and 8 have special table rows")
    h = tuple_closure(gens, n)
    order = len(h)
    if order != expected or order != pi_part(math.factorial(n), {2, 3}):
        return False
    if not prime_divisors(order) <= {2, 3}:
        return False
    cofactor = math.factorial(n) // order
    return math.gcd(cofactor, 6) == 1

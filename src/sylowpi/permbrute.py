"""Brute-force ground truth for D_pi on small groups.

Small groups are realized as permutation groups from their spec strings
(`realize`): Alt(n), Sym(n) and PSL(2, q) exactly when their order is at
most ORDER_BOUND, cyclic groups of prime order p <= 31, and direct
products of those.  The full subgroup lattice is enumerated up to
conjugacy, and E_pi / D_pi are decided by definition: D_pi holds exactly
when all maximal pi-subgroups form a single conjugacy class.

The lattice starts from the cyclic subgroups.  For each class
representative H it takes the joins <H, x>, one x per double coset HxH, and
grows all of them in one breadth-first search: every element is labelled by
the least element of its right coset Hg and of its double coset HgH, and a
join is the union of the double cosets that H reaches by right
multiplication with x, one product per right coset (coset methods as in
Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005).

A group keeps its elements as one array, `perms`: its permutations as
rows in lexicographic order (uint8, uint16 above degree 256), element i
being row i.  `lookup` maps rows back to indices by binary search over the
rows' bytes.  Realization closes the generators breadth-first with one
gather per layer, the multiplication table is filled layer by layer along
the Cayley graph with one gather per generator, and element orders are the
lcms of cycle lengths, so none of them runs Python per element.  The field
tables behind PSL(2, q) are arrays too, and a Moebius map is one array
expression over them.

Everything interesting happens on element indices against a cached
multiplication table (numpy), so degrees stay tiny and orders stay below
explicit bounds: ORDER_BOUND for materializing a group at all, a lattice
bound for whole-lattice operations, and _MAX_CLASSES subgroup classes in
one lattice.  The lattice bound is checked on every `require_table` call
that passes one; a table operation that finds no table builds it under
DEFAULT_LATTICE_BOUND.  The table holds int16 indices, so one at
ORDER_BOUND takes 10080^2 * 2 B, about 203 MB.

Outside the lattice, every subgroup built from generators comes from one
breadth-first closure over the table, `_close`: the closure of the
identity under right multiplication by gens is <gens>, that of a subgroup
H is <H, gens>, and adding conjugation by K's generators gives a normal
closure in K.  Closures (`closure_indices`), generating sets (`gens_of`),
Sylow subgroups and derived subgroups are all built with it.  The
structure tests (normality, Sylow subgroups, derived series, nilpotency)
gather conjugates from the table when they need them and keep no
per-element arrays beyond it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .arith import is_prime, prime_divisors, r_part
from .catalog import order_of, parse_group, prime_power

ORDER_BOUND = 10080
DEFAULT_LATTICE_BOUND = 1000
_CHUNK = 256          # table rows per gather, so that no n^2 temporary is made
_FRONTIER = 1 << 16   # (candidate, right coset) pairs per block of joins
_MAX_CLASSES = 1 << 15  # subgroup classes per lattice: C2^7 has 29,212
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
# permutations as sorted array rows

def _row_dtype(degree: int) -> np.dtype:
    return np.dtype(np.uint8 if degree <= 256 else np.uint16)


def _row_keys(rows, degree: int) -> np.ndarray:
    """One bytes key per row of `rows`, shape (k, degree).  The entries are
    stored big-endian, so that bytewise key order is lexicographic row order."""
    rows = np.ascontiguousarray(rows, dtype=_row_dtype(degree).newbyteorder(">"))
    return rows.view(np.dtype((np.void, rows.itemsize * degree))).reshape(-1)


def _rows_of(keys: np.ndarray, degree: int) -> np.ndarray:
    """The rows behind `keys`, in native byte order."""
    dtype = _row_dtype(degree)
    return keys.view(dtype.newbyteorder(">")).reshape(-1, degree).astype(dtype, copy=False)


def _closure(gens: np.ndarray, degree: int) -> np.ndarray:
    """Sorted row keys of the group generated by the rows `gens`: a
    breadth-first search of the right Cayley graph, one gather for all
    generators per layer (x followed by g is the row g[x])."""
    keys = _row_keys(np.arange(degree)[None], degree)
    frontier = _rows_of(keys, degree)
    while len(frontier):
        cand = gens[:, frontier].reshape(-1, degree)
        ckeys, first = np.unique(_row_keys(cand, degree), return_index=True)
        at = np.searchsorted(keys, ckeys)
        new = keys[np.minimum(at, len(keys) - 1)] != ckeys
        keys = np.insert(keys, at[new], ckeys[new])
        if len(keys) > ORDER_BOUND:
            raise BruteForceBoundError(
                f"group order exceeds the bound {ORDER_BOUND}; refusing to materialize")
        frontier = cand[first[new]]
    return keys


# ---------------------------------------------------------------------------
# groups

@dataclass
class SubgroupClass:
    """One conjugacy class of subgroups: a representative (as a frozenset
    of element indices) and every conjugate set."""
    rep: frozenset[int]
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

    @property
    def hall_classes(self) -> list[SubgroupClass]:
        """The maximal classes of pi-Hall subgroups."""
        return [c for c in self.maximal_classes if c.order == self.hall_order]


class PermGroup:
    """Immutable permutation group.  Element i is row i of `perms`, the
    group's permutations in lexicographic order."""

    def __init__(self, degree: int, generators, elements=None, name: str = ""):
        self.degree = degree
        self.generators = tuple(tuple(g) for g in generators)
        for g in self.generators:
            if sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of degree {degree}: {g}")
        if elements is None:
            keys = _closure(np.array(self.generators, dtype=np.intp).reshape(-1, degree), degree)
        else:
            rows = np.asarray(elements if isinstance(elements, np.ndarray) else list(elements))
            if len(rows) > ORDER_BOUND:
                raise BruteForceBoundError(
                    f"order {len(rows)} exceeds the hard bound {ORDER_BOUND}")
            # repeated rows stay: the table's reach check refuses them
            keys = np.sort(_row_keys(rows.reshape(-1, degree), degree))
        self._keys = keys
        self.perms = _rows_of(keys, degree)
        self.perms.flags.writeable = False
        self.order = len(keys)
        self.name = name or f"group of order {self.order} on {degree} points"
        self.identity = int(self.lookup(np.arange(degree)[None])[0])
        self._table: np.ndarray | None = None
        self._inv: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._gen_idx: tuple[int, ...] | None = None
        self._classes: list[SubgroupClass] | None = None

    # -- basic machinery ----------------------------------------------------

    def lookup(self, rows) -> np.ndarray:
        """Element indices of the permutations `rows`, shape (k, degree)."""
        keys = _row_keys(rows, self.degree)
        idx = np.searchsorted(self._keys, keys)
        found = self._keys[np.minimum(idx, self.order - 1)] == keys
        if not found.all():
            raise ElementListError(f"{self.name}: {np.count_nonzero(~found)} of "
                                   f"{len(keys)} permutations are not elements")
        return idx

    def element_orders(self) -> np.ndarray:
        """Order of each element: the lcm of its cycle lengths, found by
        following every point until it returns, one gather per step."""
        if self._orders is None:
            p = self.perms.astype(np.intp)
            points = np.arange(self.degree)
            cycle = np.zeros(p.shape, dtype=np.intp)  # 0 until the point returns
            y = p
            for k in range(1, self.degree + 1):
                cycle[(y == points) & (cycle == 0)] = k
                if cycle.all():
                    break
                y = np.take_along_axis(p, y, axis=1)
            self._orders = np.lcm.reduce(cycle, axis=1)
        return self._orders

    def gen_indices(self) -> tuple[int, ...]:
        if self._gen_idx is None:
            idx = []
            for i in self.lookup(np.array(self.generators).reshape(-1, self.degree)).tolist():
                if i != self.identity and i not in idx:
                    idx.append(i)
            self._gen_idx = tuple(idx)
        return self._gen_idx

    def require_table(self, bound: int | None = None) -> np.ndarray:
        """The multiplication table, built on first use.  The order is checked
        against `bound` on every call that passes one, and against
        DEFAULT_LATTICE_BOUND on a call without one that builds the table."""
        if bound is None and self._table is None:
            bound = DEFAULT_LATTICE_BOUND
        if bound is not None and self.order > bound:
            raise BruteForceBoundError(
                f"order {self.order} exceeds the lattice bound {bound} "
                "(pass --max-order to raise it)")
        if self._table is None:
            self._table = self._cayley_table()
            # the inverse of a permutation p is argsort(p)
            self._inv = self.lookup(np.argsort(self.perms, axis=1)).astype(np.int16)
        return self._table

    def _cayley_table(self) -> np.ndarray:
        """table[i, j] = index of (element i followed by element j), built
        layer by layer along the left Cayley graph: row s*i is left_s[row i],
        because (s*i)*x = s*(i*x).  The lookups prove the element list closed
        under left multiplication by the generators and the search proves
        every element a word in them, so the list is exactly <generators>."""
        n = self.order
        try:
            # s followed by element e is the row e[s]
            lefts = [self.lookup(self.perms[:, s]).astype(np.int16) for s in self.generators]
        except ElementListError:
            raise ElementListError(f"{self.name}: the element list is not closed "
                                   "under its generators") from None
        table = np.empty((n, n), dtype=np.int16)
        table[self.identity] = np.arange(n)
        reached = np.zeros(n, dtype=bool)
        reached[self.identity] = True
        layer = np.array([self.identity])
        while layer.size:  # breadth-first
            nxt = []
            for left in lefts:
                rows = left[layer]
                fresh = ~reached[rows]
                new, first = np.unique(rows[fresh], return_index=True)
                src = layer[fresh][first]
                reached[new] = True
                for lo in range(0, len(new), _CHUNK):
                    table[new[lo:lo + _CHUNK]] = left[table[src[lo:lo + _CHUNK]]]
                nxt.append(new)
            layer = np.concatenate(nxt) if lefts else layer[:0]
        count = np.count_nonzero(reached)
        if count != n:
            raise ElementListError(
                f"{self.name}: the generators reach only {count} "
                f"of the {n} listed elements")
        return table

    @property
    def inv(self) -> np.ndarray:
        self.require_table()
        return self._inv

    def _conjugates(self, arr, gs) -> np.ndarray:
        """Index matrix c with c[i, j] = index of gs[i]^-1 arr[j] gs[i]."""
        t = self.require_table()
        gs = np.asarray(gs, dtype=np.intp)[:, None]
        return t[t[self._inv[gs], arr], gs]

    def closure_indices(self, gen_idx) -> frozenset[int]:
        """Subgroup generated by element indices."""
        return frozenset(self._close([self.identity], gen_idx).tolist())

    def gens_of(self, subset) -> tuple[int, ...]:
        """Small generating set for a subgroup given as an element-index set:
        each element outside the subgroup generated so far is added to it."""
        # larger element orders first keeps the generating set short
        orders = self.element_orders()
        member = np.zeros(self.order, dtype=bool)
        member[self.identity] = True
        harr, gens = np.array([self.identity]), []
        for x in sorted(subset, key=lambda i: -int(orders[i])):
            if not member[x]:
                gens.append(x)
                harr = self._close(harr, gens)
                member[harr] = True
        return tuple(gens)

    def _close(self, start, gens, conj=()) -> np.ndarray:
        """Sorted elements of the least set that contains `start` and is
        closed under right multiplication by `gens` and under conjugation by
        `conj`, grown breadth-first over the table a layer at a time.  From
        the identity that is <gens>, and from a subgroup H generated by some
        of `gens` it is <H, gens>.  With `conj` generating K it is the normal
        closure of <gens> in K: the set holds the identity, and x s^k =
        (x^(k^-1) s)^k, so it is closed under right multiplication by every
        conjugate of s."""
        t = self.require_table()
        gens = np.asarray(gens, dtype=np.intp)
        conj = np.asarray(conj, dtype=np.intp)
        member = np.zeros(self.order, dtype=bool)
        member[np.asarray(start, dtype=np.intp)] = True
        layer = np.flatnonzero(member)
        while layer.size:
            fresh = np.zeros(self.order, dtype=bool)
            fresh[t[layer[:, None], gens]] = True
            fresh[self._conjugates(layer, conj)] = True
            fresh &= ~member
            member |= fresh
            layer = np.flatnonzero(fresh)
        return np.flatnonzero(member)

    def _coset_least(self, harr: np.ndarray) -> np.ndarray:
        """least[g] = least element of the right coset Hg, where H has
        elements `harr`, taken _CHUNK rows of H at a time."""
        t = self._table
        least = t[harr[:_CHUNK]].min(axis=0)
        for lo in range(_CHUNK, len(harr), _CHUNK):
            np.minimum(least, t[harr[lo:lo + _CHUNK]].min(axis=0), out=least)
        return least

    # -- subgroup lattice ---------------------------------------------------

    def subgroup_classes(self) -> list[SubgroupClass]:
        """All subgroups up to conjugacy: the cyclic subgroups, then, for each
        new class representative H, the joins <H, x>, one per double coset
        HxH outside H, until no join gives a new class.  The joins of one H
        are grown together by _joins."""
        if self._classes is not None:
            return self._classes
        t = self.require_table()
        n = self.order
        ggens = self.gen_indices()

        seen: set[frozenset[int]] = set()
        classes: list[SubgroupClass] = []

        def register(rep: frozenset[int]) -> int:
            if len(classes) >= _MAX_CLASSES:
                raise BruteForceBoundError(f"{self.name} has more than {_MAX_CLASSES} "
                                           "conjugacy classes of subgroups")
            orbit = {rep}
            queue = [rep]
            while queue:
                s = queue.pop()
                arr = np.fromiter(s, dtype=np.int32, count=len(s))
                for row in self._conjugates(arr, ggens).tolist():
                    s2 = frozenset(row)
                    if s2 not in orbit:
                        orbit.add(s2)
                        queue.append(s2)
            seen.update(orbit)
            classes.append(SubgroupClass(rep, len(rep), len(orbit), tuple(orbit)))
            return len(classes) - 1

        register(frozenset({self.identity}))
        # cyclic_gens[cyc_of[x]] holds the generators of <x>: the powers x^k
        # with k prime to |x|
        cyc_of = np.full(n, -1, dtype=np.intp)
        cyclic_gens: list[np.ndarray] = []
        for x in range(n):
            if cyc_of[x] >= 0:
                continue
            powers = [x]
            y = int(t[x, x])
            while y != x:  # x, x^2, ..., x^|x| = identity
                powers.append(y)
                y = int(t[y, x])
            o = len(powers)
            gens = np.array([z for k, z in enumerate(powers, 1) if math.gcd(k, o) == 1])
            cyc_of[gens] = len(cyclic_gens)
            cyclic_gens.append(gens)
            fs = frozenset(powers)
            if fs not in seen:
                register(fs)

        worklist = list(range(1, len(classes)))
        while worklist:
            cls = classes[worklist.pop()]
            if cls.order == n:
                continue
            for ext in self._joins(cls.rep, cyclic_gens, cyc_of):
                if ext not in seen:
                    worklist.append(register(ext))

        classes.sort(key=lambda c: (c.order, sorted(c.rep)))
        self._classes = classes
        return classes

    def _joins(self, rep: frozenset[int], cyclic_gens, cyc_of):
        """The distinct joins <H, x> of H = rep with one x per double coset
        HxH outside H, as element sets in increasing x.  <H, x> = <H, h x h'>
        = <H, x^k> for h, h' in H and k prime to |x|, so x is the least
        element of its double coset and the double cosets of every generator
        of <x> need no join of their own.

        All joins are grown together, breadth-first over (candidate, double
        coset) pairs.  <H, x> is a union of double cosets; a double coset D
        in it reaches the double coset of g x for one g per right coset Hg
        inside D, and the union of what is reached from H contains H and is
        closed under right multiplication by H and by x, so it is a group.
        Candidates go in blocks of at most _FRONTIER (candidate, right coset)
        pairs, a bound on everything one block's search holds."""
        t = self._table
        n = self.order
        harr = np.fromiter(rep, dtype=np.intp, count=len(rep))
        rc = self._coset_least(harr)
        reps = np.flatnonzero(rc == np.arange(n))  # one element per right coset
        # HgH is the union of the right cosets Hgh, so its least element is the
        # least of theirs; dc[g] numbers HgH in the order of least elements
        least, rep_dc = np.unique(rc[t[reps[:, None], harr]].min(axis=1), return_inverse=True)
        pos = np.empty(n, dtype=np.intp)
        pos[reps] = np.arange(len(reps))
        dc = rep_dc[pos[rc]]
        m = len(least)

        covered = np.zeros(m, dtype=bool)
        home = dc[self.identity]
        covered[home] = True
        cands = []
        for d, x in enumerate(least.tolist()):
            if not covered[d]:
                cands.append(x)
                covered[dc[cyclic_gens[cyc_of[x]]]] = True

        # the right coset representatives of double coset d are
        # coset_reps[start[d]:start[d] + count[d]]
        coset_reps = reps[np.argsort(rep_dc, kind="stable")]
        count = np.bincount(rep_dc, minlength=m)
        start = np.cumsum(count) - count
        block = max(1, _FRONTIER // len(reps))
        distinct = set()
        for lo in range(0, len(cands), block):
            xs = np.array(cands[lo:lo + block])
            reached = np.zeros((len(xs), m), dtype=bool)
            reached[:, home] = True
            flat = reached.ravel()  # pair (c, d) is flat[c * m + d]
            slot = np.empty(flat.size, dtype=np.intp)
            fc, fd = np.arange(len(xs)), np.full(len(xs), home)
            while fc.size:
                cnt = count[fd]
                c = np.repeat(fc, cnt)
                idx = np.arange(len(c)) + np.repeat(start[fd] - (np.cumsum(cnt) - cnt), cnt)
                pairs = c * m + dc[t[coset_reps[idx], xs[c]]]
                pairs = pairs[~flat[pairs]]
                # keep one copy of each new pair: the one whose index lands last
                at = np.arange(len(pairs))
                slot[pairs] = at
                pairs = pairs[slot[pairs] == at]
                flat[pairs] = True
                fc, fd = np.divmod(pairs, m)
            for row in reached:
                key = row.tobytes()
                if key not in distinct:
                    distinct.add(key)
                    yield frozenset(np.flatnonzero(row[dc]).tolist())

    # -- structure tests on element-index sets ------------------------------

    def derived_subgroup(self, subset) -> frozenset[int]:
        """The normal closure in K = <k> of the commutators [a, b] =
        a^-1 b^-1 a b of K's generators."""
        t = self.require_table()
        k = np.array(self.gens_of(subset), dtype=np.intp)
        ki = self._inv[k]
        comms = t[t[t[ki[:, None], ki], k[:, None]], k].ravel()
        return frozenset(self._close([self.identity], comms, k).tolist())

    def is_solvable_set(self, subset) -> bool:
        cur = frozenset(subset)
        while len(cur) > 1:
            der = self.derived_subgroup(cur)
            if len(der) == len(cur):
                return False
            cur = der
        return True

    def sylow_in(self, subset, p: int) -> frozenset[int]:
        """A Sylow p-subgroup of the subgroup K given by `subset`, grown from
        the trivial P by joining a p-element of K outside P that normalizes
        P: P<y> is then a larger p-group, and one exists while |P| < |K|_p,
        because P lies in a Sylow S > P and N_S(P) > P."""
        self.require_table()
        target = r_part(len(subset), p)
        karr = np.fromiter(subset, dtype=np.intp, count=len(subset))
        pelems = self._pi_elements(karr, (p,))
        parr, pgens = np.array([self.identity]), []
        while len(parr) < target:
            member = np.zeros(self.order, dtype=bool)
            member[parr] = True
            outside = pelems[~member[pelems]]
            # conjugation is injective, so y normalizes P when it maps every
            # element of P into P
            norm = outside[member[self._conjugates(parr, outside)].all(axis=1)]
            if not norm.size:  # cannot happen for a genuine subgroup
                raise RuntimeError("Sylow ascent stalled; input was not a subgroup")
            pgens.append(int(norm[0]))
            parr = self._close(parr, pgens)
        return frozenset(parr.tolist())

    def _pi_elements(self, arr: np.ndarray, primes) -> np.ndarray:
        """The elements of `arr` whose orders are products of primes in
        `primes`, decided once per distinct order.  (Plain np.unique would
        import numpy.ma on its first call; the return_inverse form does not.)"""
        kinds, kind = np.unique(self.element_orders()[arr], return_inverse=True)
        return arr[np.array([pi_part(o, primes) == o for o in kinds.tolist()], dtype=bool)[kind]]

    def is_nilpotent_set(self, subset) -> bool:
        """Nilpotent iff every Sylow subgroup is normal, that is, iff for
        every prime p the subgroup has exactly |K|_p p-elements: they are
        then the only Sylow p-subgroup."""
        arr = np.fromiter(subset, dtype=np.int32, count=len(subset))
        orders, counts = np.unique(self.element_orders()[arr], return_counts=True)
        return all(sum(c for o, c in zip(orders.tolist(), counts.tolist())
                       if r_part(o, p) == o) == r_part(len(arr), p)
                   for p in prime_divisors(len(arr)))

    def is_normal_set(self, subset) -> bool:
        arr = np.fromiter(subset, dtype=np.int32, count=len(subset))
        member = np.zeros(self.order, dtype=bool)
        member[arr] = True
        return bool(member[self._conjugates(arr, self.gen_indices())].all())

    def quotient(self, normal_subset) -> tuple["PermGroup", np.ndarray]:
        """Coset action on the right cosets of a normal subgroup.

        Returns the quotient group and the element-index -> coset-point map.
        """
        if not self.is_normal_set(normal_subset):
            raise ValueError("subgroup is not normal")
        t = self.require_table()
        aarr = np.fromiter(normal_subset, dtype=np.intp, count=len(normal_subset))
        # cosets are numbered in the order of their least elements
        reps, coset_of = np.unique(self._coset_least(aarr), return_inverse=True)
        coset_of = coset_of.astype(np.int32)
        k = len(reps)
        gen_perms = [tuple(coset_of[t[reps, s]].tolist()) for s in self.gen_indices()]
        if not gen_perms:
            gen_perms = [tuple(range(k))]
        q = PermGroup(k, gen_perms, name=f"{self.name} / N (order {len(normal_subset)})")
        return q, coset_of


# ---------------------------------------------------------------------------
# realizations

_REALIZE_CACHE: dict[str, PermGroup] = {}


class _GF:
    """Tiny finite field with dense add/mul tables: polynomials over F_p
    numbered by their base-p digits, low degree first, modulo the first
    monic x^f + low(x) in that numbering whose table has no zero divisors."""

    def __init__(self, q: int):
        p, f = prime_power(q)
        self.q, self.p, self.f = q, p, f
        weights = p ** np.arange(f)
        digits = np.arange(q)[:, None] // weights % p  # (q, f)
        self.add = (digits[:, None] + digits) % p @ weights
        for low in digits:
            # the digits of a * x^k: a shift of a * x^(k-1), reduced by x^f = -low(x)
            shifts = [digits]
            for _ in range(1, f):
                d = shifts[-1]
                shifts.append((np.pad(d[:, :-1], ((0, 0), (1, 0))) - d[:, -1:] * low) % p)
            self.mul = np.einsum("bk,akf->abf", digits, np.stack(shifts, axis=1)) % p @ weights
            if self.mul[1:, 1:].all():
                break
        self.neg = self.add.argmin(axis=1)
        self.inv = (self.mul == 1).argmax(axis=1)  # 0 for a = 0, whose row has no 1


def _psl2(q: int) -> PermGroup:
    """PSL(2, q) acting on the projective line (q + 1 points, infinity last),
    generated by the translations x -> x + p^i (an F_p-basis of F_q) and
    x -> -1/x: they give the upper and lower unitriangular matrices, which
    generate SL(2, q)."""
    F = _GF(q)
    # point x is u/v: (x, 1) for x in F_q, then infinity (1, 0)
    u, v = np.append(np.arange(q), 1), np.append(np.ones(q, dtype=int), 0)

    def mobius(a, b, c, d):  # x -> (a x + b) / (c x + d)
        num = F.add[F.mul[a, u], F.mul[b, v]]
        den = F.add[F.mul[c, u], F.mul[d, v]]
        return tuple(np.where(den != 0, F.mul[num, F.inv[den]], q).tolist())

    gens = [mobius(1, F.p ** i, 0, 1) for i in range(F.f)] + [mobius(0, F.neg[1], 1, 0)]
    return PermGroup(q + 1, gens, name=f"PSL(2,{q})")


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
    # the rows a + b in the order of (a, b); the table's reach check proves
    # them <gens>
    dtype = _row_dtype(d1 + d2)
    rows = np.concatenate([np.repeat(g1.perms.astype(dtype), g2.order, axis=0),
                           np.tile(g2.perms.astype(dtype) + dtype.type(d1), (g1.order, 1))], axis=1)
    return PermGroup(d1 + d2, gens, elements=rows, name=f"{g1.name} x {g2.name}")


def realize(spec: str) -> PermGroup:
    """Realize a built-in group from its spec string: a direct product of
    comma-separated factors ("Alt:5,Cyclic:7"), each one of Alt:n, Sym:n
    (n >= 5), PSL(2, q) as Lie:A:2:q, and Cyclic:p for a prime p <= 31.  An
    Alt, Sym or PSL factor is realized exactly when its order is at most
    ORDER_BOUND, which is checked before any element is built.  Groups are
    cached by spec."""
    g = _REALIZE_CACHE.get(spec)
    if g is None:
        parts = [s.strip() for s in spec.split(",") if s.strip()] or [spec]
        if len(parts) == 1:
            g = _realize_factor(parts[0])
        else:
            g = functools.reduce(direct_product, [realize(s) for s in parts])
        _REALIZE_CACHE[spec] = g
    return g


def _realize_factor(spec: str) -> PermGroup:
    if spec.startswith("Cyclic:"):
        p = int(spec.split(":", 1)[1])
        if not (2 <= p <= 31 and is_prime(p)):  # the degree is p
            raise BruteForceBoundError(f"Cyclic({p}) needs a prime p <= 31")
        return _cyclic(p)
    if spec.startswith("Sym:"):
        n = int(spec.split(":", 1)[1])
        if n < 5:
            raise BruteForceBoundError(f"Sym({n}) is not a built-in realization")
        name, degree = f"Sym({n})", n
        order, build = lambda: math.factorial(n), lambda: _sym(n)
    else:
        gid = parse_group(spec)
        if gid.family == "Alt":
            degree, build = gid.n, lambda: _alt(gid.n)
        elif gid.family == "Lie" and gid.lie_type == "A" and gid.n == 2:
            degree, build = gid.q + 1, lambda: _psl2(gid.q)
        else:
            raise BruteForceBoundError(f"{gid} is not a built-in realization")
        name, order = str(gid), lambda: order_of(gid)
    # each of these groups is 2-transitive on its degree points, so it has at
    # least degree * (degree - 1) elements: a larger degree is refused without
    # computing an order such as (10^6)!, which takes seconds
    least = degree * (degree - 1)
    expected = order() if least <= ORDER_BOUND else None
    if expected is None or expected > ORDER_BOUND:
        raise BruteForceBoundError(
            f"{name} is not a built-in realization: order "
            f"{expected or f'at least {least}'} exceeds the bound {ORDER_BOUND}")
    g = build()
    if g.order != expected:
        raise RuntimeError(f"realization of {name} has order {g.order}, "
                           f"expected {expected}")
    return g


# ---------------------------------------------------------------------------
# pi-subgroup analysis

def _conjugate_inside(c: SubgroupClass, host: frozenset[int]) -> frozenset[int] | None:
    """A subgroup of the class c inside the subgroup `host`, if one is."""
    return next((s for s in c.all_sets if s <= host), None)


def maximal_pi_subgroups(g: PermGroup, pi, with_structure: bool = True) -> HallReport:
    """Conjugacy classes of maximal pi-subgroups, in lattice order, and the
    E_pi/D_pi verdict.  Each pi-class, largest first, is tested against the
    maximal ones found so far: a non-maximal one lies in a larger maximal one."""
    pi = frozenset(pi)
    classes = g.subgroup_classes()
    pi_classes = [c for c in classes if pi_part(c.order, pi) == c.order]
    maximal = []
    for c in reversed(pi_classes):
        if not any(d.order > c.order and d.order % c.order == 0
                   and _conjugate_inside(c, d.rep) is not None for d in maximal):
            maximal.append(c)
    maximal.reverse()
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


def _find_hall_inside(pi_classes, host: frozenset[int],
                      sub_pi: frozenset[int]) -> frozenset[int] | None:
    """A sub_pi-Hall subgroup of the subgroup `host`, if one exists."""
    want = pi_part(len(host), sub_pi)
    for c in pi_classes:
        if c.order == want and (s := _conjugate_inside(c, host)) is not None:
            return s
    return None


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
    solvable = all(g.is_solvable_set(c.rep) for c in report.hall_classes)
    partitions = {}
    for sigma, tau in _two_part_partitions(report.pi_effective):
        ok = True
        for c in report.hall_classes:
            s_hall = _find_hall_inside(pi_classes, c.rep, sigma)
            t_hall = _find_hall_inside(pi_classes, c.rep, tau)
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
    q, coset_of = g.quotient(normal_subset)
    a_hall = pi_part(len(normal_subset), pi)
    q_hall = pi_part(q.order, pi)
    t = g.require_table()
    coset_rep = np.unique(coset_of, return_index=True)[1]  # least element of each coset
    for c in report.hall_classes:
        h = c.rep
        if len(h & normal_subset) != a_hall:
            return False
        image_points = {int(coset_of[x]) for x in h}
        if len(image_points) != q_hall:
            return False
        # realize the image inside the coset-action group and re-check there:
        # each generator of H permutes the cosets by right multiplication
        image_gens = [coset_of[t[coset_rep, hg]].tolist() for hg in g.gens_of(h)]
        if PermGroup(q.order, image_gens).order != q_hall:
            return False
    return True


def split_hall(g: PermGroup, hall_subset, sigma, tau) -> tuple[frozenset[int], frozenset[int]] | None:
    """Decompose a Hall subgroup as (sigma-part) x (tau-part), if it does."""
    sigma, tau = frozenset(sigma), frozenset(tau)
    h = frozenset(hall_subset)
    s_order, t_order = pi_part(len(h), sigma), pi_part(len(h), tau)
    if s_order * t_order != len(h):
        return None  # sigma u tau does not cover pi(H)
    harr = np.fromiter(h, dtype=np.intp, count=len(h))
    # the sigma-elements and the tau-elements of H
    parts = [g._pi_elements(harr, primes) for primes in (sigma, tau)]
    if [len(arr) for arr in parts] != [s_order, t_order]:
        return None
    t = g.require_table()
    for arr in parts:  # a finite set closed under products is a subgroup
        member = np.zeros(g.order, dtype=bool)
        member[arr] = True
        if not member[t[np.ix_(arr, arr)]].all():
            return None
    return frozenset(parts[0].tolist()), frozenset(parts[1].tolist())


def check_final_corollary(g: PermGroup, splits) -> bool:
    """The final corollary on the pi-Hall subgroups of a group with D_sigma
    and D_tau, pi = sigma u tau, given their splits (sigma-part, tau-part)
    from split_hall: one factor of every split is nilpotent."""
    return all(g.is_nilpotent_set(s) or g.is_nilpotent_set(t) for s, t in splits)


# ---------------------------------------------------------------------------
# constructive reproduction of the symmetric-group table rows

def reproduce_table1(n: int) -> bool:
    """Rebuild the {2,3}-Hall subgroup of Sym_n for n = 7 (Sym_3 x Sym_4)
    or n = 8 (Sym_4 wr Sym_2) and verify order and Hall property."""
    if n == 7:
        gens, expected = direct_product(_sym(3), _sym(4)).generators, 144
    elif n == 8:
        block_swap = (4, 5, 6, 7, 0, 1, 2, 3)
        gens, expected = direct_product(_sym(4), _sym(4)).generators + (block_swap,), 1152
    else:
        raise ValueError("only degrees 7 and 8 have special table rows")
    order = PermGroup(n, gens).order
    if order != expected or order != pi_part(math.factorial(n), {2, 3}):
        return False
    if not prime_divisors(order) <= {2, 3}:
        return False
    cofactor = math.factorial(n) // order
    return math.gcd(cofactor, 6) == 1

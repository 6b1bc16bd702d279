"""Brute-force ground truth for D_pi on small groups.

Small groups are realized as permutation groups from their spec strings
(`realize`): Alt(n), Sym(n), and PSL(n, q) as Lie:A:n:q on PG(n - 1, q),
when their order is at most ORDER_BOUND, M11 on 11 points, cyclic groups
of prime order p <= 31, and direct products of those.  The full subgroup
lattice is enumerated up to conjugacy, and E_pi / D_pi are decided by
definition: D_pi holds exactly when all maximal pi-subgroups form a single
conjugacy class.  A pi-subgroup H is maximal exactly when no join <H, x>,
x outside H, is a pi-group, so each class keeps the orders of its joins
that no other join order divides, and the search reads nothing else.

The lattice starts from the cyclic subgroups.  For each subgroup H found
it takes the joins <H, x>, one x per double coset HxH.  A subgroup in the
lattice is a sorted int16 row of element indices, known by the row's
bytes, its key, and subgroups waiting to be registered are keys on one
stack.  Each is labelled once, when it is registered, by the least element
of every right coset Hg; H^g depends only on Hg, so one conjugation gather
by those least elements gives every conjugate.  A class keeps its
conjugates as the rows of one array in key order, so its representative
is the conjugate with the least key, whatever order the classes are found
in.  The joins of a block of subgroups are grown together in one
breadth-first search: every element is labelled, for all of them at once,
by the least element of its double coset HgH, read from the right coset
labels, and a join is the union of the double cosets that H reaches by
right multiplication with x, one product per right coset (coset methods as
in Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005).
The cyclic subgroups come from one walk over the elements in increasing
order, one product per power of each least generator.  Whether a class
has a conjugate inside a subgroup, which the structural lemmas ask of
sigma- and tau-Hall subgroups, is one gather of that subgroup's
membership mask, `_mask`, over the class's rows.

A group keeps its elements as one array, `perms`: its permutations as
uint8 rows in lexicographic order, element i being row i, so the degree is
at most 256.  `lookup` maps rows back to indices by binary search over the
rows' bytes.  A group is built from its generators, closed breadth-first
with one gather per layer, or by `direct_product` from its two factors.
A product's order is theirs multiplied, and its generators and their
closure, its rows, the pairs of its factors' rows in order, are built on
first read.  No engine path reads either, so a product that a caller's
bound refuses builds no permutation.  Its multiplication table is the
outer sum of its factors' tables, written a block of rows at a time, and
its inverses and element orders are its factors' paired up; any other
group's table is filled layer by layer along the Cayley graph with one
gather per generator and block of rows, its inverses are looked up from
the argsorts of its rows, and its element orders are the lcms of cycle
lengths, so none of these runs Python per element.  The inverses read no
table, and each of the three is cached on its own.  An element's order
divides |G|, so the pi-element and nilpotency tests keep the elements
whose orders divide |G|_pi, one array modulo.  The field tables behind
PSL(n, q) are arrays too, and a matrix moves every point in one array
expression over them.

Everything interesting happens on element indices against a
multiplication table (numpy), read through one method, `_products`:
outside the table's own construction no other code indexes it, so its
format is known in one place.  Degrees stay tiny and orders stay below
explicit bounds: ORDER_BOUND for materializing a group at all, and
_LATTICE_CAP for one lattice, which is refused once its subgroup classes
times the group order reach it.  `require_table(bound=...)` also checks
the order against a bound that the caller passes.  The table holds int16
indices, so one at ORDER_BOUND takes 10080^2 * 2 B, about 203 MB.  A group
keeps its table and lattice while it lives; `realize` caches single
factors' element rows by spec and returns a new group of the caller's own
on every call.

Outside the lattice, every subgroup built from generators comes from one
breadth-first closure over the products, `_close`: the closure of the
identity under right multiplication by gens is <gens>, that of a subgroup
H is <H, gens>, and adding conjugation by K's generators gives a normal
closure in K.  Closures (`closure_indices`), generating sets (`gens_of`),
Sylow subgroups and derived subgroups are all built with it.  The
structure tests (Sylow subgroups, derived series, nilpotency) gather
conjugates when they need them and keep no per-element arrays beyond the
table, the inverses and the element orders.  The normal subgroups are the
lattice classes of size 1.
"""

from __future__ import annotations

import copy
import functools
import math
from typing import NamedTuple

import numpy as np

from .arith import pi_part, prime_divisors, r_part
from .catalog import order_of, prime_power
from .composition import CyclicFactor, Sym, Term, read_term, spec_terms

ORDER_BOUND = 10080
_FRONTIER = 1 << 16  # pairs per block of joins, table entries per block written or gathered
# subgroup classes times group order per lattice: registering a class gathers
# n coset labels and n conjugates at least, so classes x n is a lower bound
# on the lattice's gathers; C2^7 has 29,212 classes x 128 = 3.7 M
_LATTICE_CAP = 1 << 22
# no command applies this order bound: acceptance criterion 4 selects its
# products by comparing their orders with it, and perfbench's products
# workload passes it to `require_table` (the workload expects 56 refusals)
DEFAULT_LATTICE_BOUND = 1000
# multiplication tables and inverses hold element indices as int16
assert ORDER_BOUND <= np.iinfo(np.int16).max + 1


class BruteForceBoundError(ValueError):
    """A requested computation exceeds the configured size bounds."""


class ElementListError(ValueError):
    """A permutation passed to `lookup` is not an element of the group."""


# ---------------------------------------------------------------------------
# permutations as sorted array rows

def _row_keys(rows) -> np.ndarray:
    """One bytes key per permutation row of `rows`, shape (k, degree), stored
    as uint8, so that bytewise key order is lexicographic row order."""
    return _bytes_keys(np.asarray(rows, dtype=np.uint8))


def _bytes_keys(rows: np.ndarray) -> np.ndarray:
    """One bytes key per row of the 2-d array `rows`: key i is rows[i].tobytes()."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).reshape(-1)


def _spans(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, idx) for the index ranges start[j]:start[j] + count[j] laid
    end to end: idx runs through them in turn, and idx[i] is in range
    owner[i]."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) + (start - np.cumsum(count) + count)[owner]


def _closure(gens: np.ndarray, degree: int) -> np.ndarray:
    """Sorted uint8 rows of the group generated by the rows `gens`: a
    breadth-first search of the right Cayley graph, one gather for all
    generators per layer (x followed by g is the row g[x])."""
    frontier = np.arange(degree)[None]
    keys = _row_keys(frontier)
    while len(frontier):
        cand = gens[:, frontier].reshape(-1, degree)
        ckeys, first = np.unique(_row_keys(cand), return_index=True)
        at = np.searchsorted(keys, ckeys)
        new = keys[np.minimum(at, len(keys) - 1)] != ckeys
        keys = np.insert(keys, at[new], ckeys[new])
        if len(keys) > ORDER_BOUND:
            raise BruteForceBoundError(
                f"group order exceeds the bound {ORDER_BOUND}; refusing to materialize")
        frontier = cand[first[new]]
    return keys.view(np.uint8).reshape(-1, degree)


# ---------------------------------------------------------------------------
# groups

class SubgroupClass:
    """One conjugacy class of subgroups: every conjugate as a row of the
    int16 array `conjugates` (class_size x order), the row its element
    indices in increasing order, the rows in the order of their bytes.  Row
    0, the conjugate with the least bytes, is the representative, which
    `rep` gives as a frozenset, built on first use; `class_size` and `order`
    are the array's shape.  `join_orders` are the orders of the joins <H, x>,
    x outside H, that no other join's order divides, sorted: the primes of
    |G| for {e}, () for G, and _joins' orders for every other class; they
    are the same for every conjugate.  Classes compare by identity."""

    def __init__(self, conjugates: np.ndarray):
        self.conjugates = conjugates
        self.join_orders: tuple[int, ...] = ()

    @property
    def class_size(self) -> int:
        return self.conjugates.shape[0]

    @property
    def order(self) -> int:
        return self.conjugates.shape[1]

    @functools.cached_property
    def rep(self) -> frozenset[int]:
        return frozenset(self.conjugates[0].tolist())


class HallReport(NamedTuple):
    """The maximal pi-subgroup classes of a group and its E_pi/D_pi verdict.
    `structural` is None unless a pi-Hall subgroup exists and the flags were
    asked for; otherwise it is _structural_flags' dict, as JSON prints it."""

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


def _permutations(degree: int, gens) -> tuple[tuple[int, ...], ...]:
    """`gens` as tuples, each checked to be a permutation of range(degree)."""
    gens = tuple(tuple(g) for g in gens)
    for g in gens:
        if sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation of degree {degree}: {g}")
    return gens


class PermGroup:
    """Immutable permutation group of degree at most 256, the closure of its
    generators, checked at construction.  Element i is row i of `perms`, the
    group's permutations as uint8 rows in lexicographic order, laid out on
    first read: `_order` reads them at construction, except a product's,
    which builds its generators and rows only when they are read."""

    def __init__(self, degree: int, generators, name: str = ""):
        self.generators = _permutations(degree, generators)
        self._init(degree, name)

    def _init(self, degree: int, name: str) -> None:
        """The fields of every group, a product's too: the degree, checked
        against 256, the order from `_order`, the name and empty caches."""
        if degree > 256:
            raise ValueError(f"degree {degree} exceeds 256, the most that uint8 rows hold")
        self.degree = degree
        self.order = self._order()
        self.name = name or f"group of order {self.order} on {degree} points"
        self.identity = 0  # the least permutation: row 0 of the sorted rows, a product's too
        self._table: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        self._classes: list[SubgroupClass] | None = None

    # -- basic machinery ----------------------------------------------------

    def _order(self) -> int:
        """|<generators>|, closed here and refused past ORDER_BOUND."""
        return len(self.perms)

    @functools.cached_property
    def perms(self) -> np.ndarray:
        rows = self._element_rows()
        rows.flags.writeable = False
        return rows

    @functools.cached_property
    def _keys(self) -> np.ndarray:
        return _bytes_keys(self.perms)

    def _element_rows(self) -> np.ndarray:
        """The sorted uint8 rows of <generators>."""
        return _closure(np.array(self.generators, dtype=np.intp).reshape(-1, self.degree),
                        self.degree)

    def lookup(self, rows) -> np.ndarray:
        """Element indices of the permutations `rows`, shape (k, degree)."""
        keys = _row_keys(rows)
        idx = np.searchsorted(self._keys, keys)
        found = self._keys[np.minimum(idx, self.order - 1)] == keys
        if not found.all():
            raise ElementListError(f"{self.name}: {np.count_nonzero(~found)} of "
                                   f"{len(keys)} permutations are not elements")
        return idx

    def element_orders(self) -> np.ndarray:
        """Order of each element, `_element_orders()` built on first use and
        cached."""
        if self._orders is None:
            self._orders = self._element_orders()
        return self._orders

    def _element_orders(self) -> np.ndarray:
        """Order of each element, uncached: the lcm of its cycle lengths, found
        by following every point until it returns, one gather per step."""
        p = self.perms.astype(np.intp)
        points = np.arange(self.degree)
        cycle = np.zeros(p.shape, dtype=np.intp)  # 0 until the point returns
        y = p
        for k in range(1, self.degree + 1):
            cycle[(y == points) & (cycle == 0)] = k
            if cycle.all():
                break
            y = np.take_along_axis(p, y, axis=1)
        return np.lcm.reduce(cycle, axis=1)

    def require_table(self, bound: int | None = None) -> np.ndarray:
        """The multiplication table, `_cayley_table()`, built on first use and
        cached; the inverses are `inv`, built apart from it.  The order is
        checked against `bound` on every call that passes one."""
        if bound is not None and self.order > bound:
            raise BruteForceBoundError(f"order {self.order} exceeds the lattice bound {bound}")
        if self._table is None:
            self._table = self._cayley_table()
        return self._table

    def _inverses(self) -> np.ndarray:
        """inv[i] = index of the inverse of element i, as int16, uncached: the
        inverse of a permutation p is argsort(p)."""
        return self.lookup(np.argsort(self.perms, axis=1)).astype(np.int16)

    def _cayley_table(self) -> np.ndarray:
        """table[i, j] = index of (element i followed by element j), filled
        layer by layer along the left Cayley graph from the identity's row:
        row s*i is left_s[row i], because (s*i)*x = s*(i*x).  The elements
        are the closure of the generators, so the search reaches every row.
        New rows are filled _FRONTIER // n at a time, one gather of the source
        rows through left_s per block."""
        n = self.order
        # s followed by element e is the row e[s]
        lefts = [self.lookup(self.perms[:, s]).astype(np.int16) for s in self.generators]
        table = np.empty((n, n), dtype=np.int16)
        table[self.identity] = np.arange(n)
        reached = self._mask(self.identity)
        layer = np.array([self.identity])
        step = max(1, _FRONTIER // n)
        while layer.size:  # breadth-first
            nxt = []
            for left in lefts:
                rows = left[layer]
                fresh = ~reached[rows]
                new, first = np.unique(rows[fresh], return_index=True)
                src = layer[fresh][first]
                reached[new] = True
                for lo in range(0, len(new), step):
                    table[new[lo:lo + step]] = left.take(table[src[lo:lo + step]])
                nxt.append(new)
            layer = np.concatenate(nxt) if lefts else layer[:0]
        return table

    @functools.cached_property
    def inv(self) -> np.ndarray:
        """inv[i] = index of the inverse of element i, `_inverses()` built on
        first read and cached; it reads no table."""
        return self._inverses()

    def _products(self, a, b) -> np.ndarray:
        """int16 indices of (element a followed by element b) for index arrays
        a and b broadcast together, b = slice(None) giving a row per entry of
        a: the one read of products outside the table's own construction."""
        return self.require_table()[a, b]

    def _mask(self, idx) -> np.ndarray:
        """The boolean membership mask of the element indices `idx`."""
        mask = np.zeros(self.order, dtype=bool)
        mask[idx] = True
        return mask

    def _conjugates(self, arr, gs) -> np.ndarray:
        """Index array c with c[i, j...] = index of gs[i]^-1 arr[j...] gs[i]."""
        gs = np.asarray(gs, dtype=np.intp).reshape((-1,) + (1,) * np.ndim(arr))
        return self._products(self._products(self.inv[gs], arr), gs)

    def closure_indices(self, gen_idx) -> frozenset[int]:
        """Subgroup generated by element indices."""
        return frozenset(self._close([self.identity], gen_idx).tolist())

    def gens_of(self, subset) -> tuple[int, ...]:
        """Small generating set for a subgroup given as an element-index set:
        each element outside the subgroup generated so far is added to it."""
        # larger element orders first keeps the generating set short; a stable
        # sort keeps the subset's own order among elements of one order
        orders = self.element_orders()
        arr = np.fromiter(subset, dtype=np.intp)
        arr = arr[np.argsort(-orders[arr], kind="stable")]
        member = self._mask(self.identity)
        harr, gens = np.array([self.identity]), []
        while (arr := arr[~member[arr]]).size:
            gens.append(int(arr[0]))
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
        gens = np.asarray(gens, dtype=np.intp)
        conj = np.asarray(conj, dtype=np.intp)
        member = self._mask(start)
        layer = np.flatnonzero(member)
        while layer.size:
            fresh = self._mask(self._products(layer[:, None], gens))
            if conj.size:
                fresh[self._conjugates(layer, conj)] = True
            fresh &= ~member
            member |= fresh
            layer = np.flatnonzero(fresh)
        return np.flatnonzero(member)

    def _coset_least(self, h: np.ndarray) -> np.ndarray:
        """least[g] = least element of the right coset Hg, where H has the
        elements h: the minimum of the rows of products h g, _FRONTIER // n
        per gather."""
        step = max(1, _FRONTIER // self.order)
        least = self._products(h[:step], slice(None)).min(axis=0)
        for lo in range(step, len(h), step):
            np.minimum(least, self._products(h[lo:lo + step], slice(None)).min(axis=0), out=least)
        return least

    # -- subgroup lattice ---------------------------------------------------

    def subgroup_classes(self) -> list[SubgroupClass]:
        """All subgroups up to conjugacy: the cyclic subgroups and, from each
        subgroup H found, the joins <H, x>, one per double coset HxH outside
        H, until no join gives a new subgroup.

        Every subgroup is a sorted int16 row of element indices, known by the
        row's bytes, its key: `seen` holds the key of every conjugate of every
        class registered.  Subgroups wait as keys on a LIFO stack, seeded with
        the cyclic subgroups.  Keys not in `seen` are popped until a block of
        _FRONTIER // n is collected, and each is registered: H^g depends only
        on the right coset Hg, so its conjugates are H conjugated by the least
        element of every right coset, _coset_least's labels, in one gather and
        one row sort.  One row is kept per distinct subgroup, in key order, so
        the representative, row 0, is the conjugate with the least key, and
        the classes do not depend on the order in which they are found.  The
        joins of the block are then grown in one call of _joins, which reads
        the same labels, and pushed, and each class keeps its block
        subgroup's join orders.  {e}, whose joins are the cyclic subgroups,
        the least of them of prime order, and G are registered first and
        never joined.  The lattice is refused once its classes registered
        times n reach _LATTICE_CAP."""
        if self._classes is not None:
            return self._classes
        n = self.order
        elements = np.arange(n)
        cyclic = self._cyclic_subgroups()
        members, members_from = cyclic[3].astype(np.int16), cyclic[4].tolist()
        seen = {members[:1].tobytes(), elements.astype(np.int16).tobytes()}  # {e} and G
        classes = [SubgroupClass(np.frombuffer(key, dtype=np.int16)[None]) for key in seen]
        for c in classes:  # {e}'s joins are the cyclic subgroups, the least of prime order
            if c.order < n:
                c.join_orders = tuple(sorted(prime_divisors(n)))
        stack = [members[lo:hi].tobytes() for lo, hi in zip(members_from[1:], members_from[2:])]
        shared = {}  # one tuple per distinct value: C2^7's 29,212 classes share 8, 1.3 MB less
        step = max(1, _FRONTIER // n)
        cap = -(-_LATTICE_CAP // n)
        while stack:
            block, least = [], []
            while stack and len(block) < step:
                if (key := stack.pop()) in seen:
                    continue
                if len(classes) >= cap:
                    raise BruteForceBoundError(f"{self.name} has more than {cap} "
                                               "conjugacy classes of subgroups")
                h = np.frombuffer(key, dtype=np.int16)
                rc = self._coset_least(h)
                rows = np.sort(self._conjugates(h, np.flatnonzero(rc == elements)), axis=1)
                keys, first = np.unique(_bytes_keys(rows), return_index=True)
                seen.update(keys.tolist())
                classes.append(SubgroupClass(rows[first]))
                block.append(h)
                least.append(rc)
            if block:
                found, orders = self._joins(block, np.array(least), cyclic, seen)
                for c, o in zip(classes[-len(block):], orders):
                    c.join_orders = shared.setdefault(o, o)
                stack += found

        classes.sort(key=lambda c: (c.order, c.conjugates[0].tolist()))
        self._classes = classes
        return classes

    def _cyclic_subgroups(self):
        """(gens, gens_from, number, members, members_from): the cyclic
        subgroups, numbered in the order of their least generators, so that
        <x> is number[x], the generators of number c are gens[gens_from[c]:
        gens_from[c + 1]], in increasing order, and its elements are
        members[members_from[c]:members_from[c + 1]], sorted; {e} is number 0.
        One walk over the elements in increasing order (cyclic extension, as
        in Holt, Eick and O'Brien, Handbook of Computational Group Theory,
        2005): the first x with no number yet is the least generator of <x>,
        because all generators of a cyclic subgroup are numbered together.
        Its powers x^j, j < |x|, each read from x's row of products as x
        followed by the last, are the elements of <x>, and those with j prime
        to |x| its generators."""
        number = [-1] * self.order
        gens, gens_from, members, members_from = [], [], [], [0]
        for x in range(self.order):
            if number[x] >= 0:
                continue
            powers, p = [self.identity], x
            row = self._products(x, slice(None))  # x followed by each element
            while p != self.identity:
                powers.append(p)
                p = row.item(p)
            k = len(powers)
            gen = sorted(powers[j] for j in range(k) if math.gcd(j, k) == 1)
            for y in gen:
                number[y] = len(gens_from)
            gens_from.append(len(gens))
            gens += gen
            members += sorted(powers)
            members_from.append(len(members))
        return tuple(map(np.array, (gens, gens_from, number, members, members_from)))

    def _joins(self, block: list[np.ndarray], least: np.ndarray, cyclic,
               known) -> tuple[list[bytes], list[tuple[int, ...]]]:
        """(found, orders): the joins <H, x> of the proper subgroups H in
        `block` (sorted element rows), one x per double coset HxH outside H,
        as the bytes of their sorted int16 element rows, less those in
        `known`; one H's joins are distinct, two H's may share one.
        orders[i] holds, sorted, the orders of block[i]'s distinct joins,
        those in `known` too, that no other of its join orders divides.
        least[i] is _coset_least(block[i]), and `cyclic` is
        _cyclic_subgroups().

        The block's (H, element) pairs are labelled at once by
        _double_cosets, and its joins are grown together in one breadth-first
        search over (candidate, double coset) pairs, the candidates taken in
        blocks of at most _FRONTIER (candidate, right coset) and (candidate,
        power) pairs.  <H, x> is a union of double cosets; a double coset D
        in it reaches the double coset of g x for one g per right coset Hg
        inside D, and the union of what is reached from the double coset of
        each power of x, H among them, is closed under right multiplication
        by H and by x, so it is a group (coset methods as in Holt, Eick and
        O'Brien, Handbook of Computational Group Theory, 2005).  Starting
        from all the powers, the elements of the cyclic subgroup <x>, rather
        than from H alone takes fewer layers.  A join's element rows are
        expanded from masks of at most _FRONTIER elements at a time, and
        its order is its row's length."""
        n = self.order
        number, elements, elements_from = cyclic[2:]
        dc, coset_reps, count, cr, cx = self._double_cosets(block, least, cyclic)
        m = dc.max(axis=1) + 1
        off = np.cumsum(m) - m  # double coset d of H_i is number off[i] + d
        start = np.cumsum(count) - count
        # cost[j]: the right cosets and powers of the candidates before j
        cyc = number[cx]
        size = elements_from[cyc + 1] - elements_from[cyc]
        cost = np.concatenate([[0], np.cumsum(n // np.array([len(h) for h in block])[cr] + size)])
        step = max(1, _FRONTIER // n)
        found: list[bytes] = []
        orders: list[set[int]] = [set() for _ in block]
        distinct: set[tuple[int, bytes]] = set()  # (i, reached mask) so far
        lo = 0
        while lo < len(cr):
            hi = max(lo + 1, int(np.searchsorted(cost, cost[lo] + _FRONTIER, side="right")) - 1)
            xs, rs, ps, ss = cx[lo:hi], cr[lo:hi], cyc[lo:hi], size[lo:hi]
            lo = hi
            mc = m[rs]
            base = np.cumsum(mc) - mc  # pair (c, d) is base[c] + d
            shift = off[rs] - base  # pair p of c is double coset p + shift[c]
            reached = np.zeros(base[-1] + mc[-1], dtype=bool)
            slot = np.empty(len(reached), dtype=np.int32)
            # <H, x> holds the double cosets of the powers of x, H among them
            c, idx = _spans(elements_from[ps], ss)
            pairs = base[c] + dc[rs[c], elements[idx]]
            while True:
                pairs = pairs[~reached[pairs]]
                # keep one copy of each new pair: the one whose index lands last
                at = np.arange(len(pairs), dtype=np.int32)
                slot[pairs] = at
                pairs = pairs[slot[pairs] == at]
                if not pairs.size:
                    break
                reached[pairs] = True
                fc = np.searchsorted(base, pairs, side="right") - 1
                fd = pairs + shift[fc]
                c, idx = _spans(start[fd], count[fd])
                c = fc[c]
                pairs = base[c] + dc[rs[c], self._products(coset_reps[idx], xs[c])]
            masks = reached.tobytes()
            new = []
            for j, (i, u, v) in enumerate(zip(rs.tolist(), base.tolist(), (base + mc).tolist())):
                key = (i, masks[u:v])
                if key not in distinct:
                    distinct.add(key)
                    new.append(j)
            new = np.array(new, dtype=np.intp)
            for u in range(0, len(new), step):
                js = new[u:u + step]
                # in place, so that one index array is held at a time
                members = dc[rs[js]]
                members += base[js, None]
                members = reached[members]
                ends = np.add.reduce(members, axis=1).cumsum().tolist()
                members = np.flatnonzero(members)
                members %= n
                rows = members.astype(np.int16).tobytes()
                for i, e0, e in zip(rs[js].tolist(), [0] + ends[:-1], ends):
                    orders[i].add(e - e0)
                    if (key := rows[2 * e0:2 * e]) not in known:
                        found.append(key)
        return found, [tuple(sorted(a for a in o if all(a % b for b in o if b < a)))
                       for o in orders]

    def _double_cosets(self, block: list[np.ndarray], rc: np.ndarray, cyclic):
        """(dc, coset_reps, count, cr, cx) for the subgroups H_i in `block`,
        given rc[i, g], the least element of the right coset H_i g: dc[i, g]
        numbers the double coset H_i g H_i among those of H_i, in the order of
        their least elements; numbered across the block, in the order of
        (i, dc), double coset e has the right coset representatives
        coset_reps[s:s + count[e]], s = count[:e].sum(); and (cr[j], cx[j])
        are the candidates for joins, by i and then x.

        <H, x> = <H, h x h'> = <H, x^k> for h, h' in H and k prime to |x|, so
        a candidate x is the least element of a double coset d != H, taken
        only when d is the least double coset holding a generator of <x>: any
        other x has the join of an x' in an earlier double coset, which is
        taken or has the join of one earlier still."""
        n = self.order
        k = len(block)
        # (i, g) for one g per right coset H_i g, the least, by i
        ri, gi = np.nonzero(rc == np.arange(n))
        # H g H is the union of the right cosets H g h, so its least element
        # is the least of theirs: one gather of the k n products g h
        sizes = np.array([len(h) for h in block])
        hcat = np.concatenate(block)
        s = sizes[ri]
        j, h = _spans((np.cumsum(sizes) - sizes)[ri], s)
        dl = np.minimum.reduceat(rc[ri[j], self._products(gi[j], hcat[h])], np.cumsum(s) - s)
        # number the double cosets by marking their least elements and counting
        is_least = np.zeros((k, n), dtype=bool)
        is_least[ri, dl] = True
        number = is_least.cumsum()
        coset_dc = number[ri * n + dl] - 1  # numbered across the block
        dc = np.empty((k, n), dtype=np.intp)
        dc[ri, gi] = coset_dc
        dc = dc[np.arange(k)[:, None], rc] - (number[::n] - is_least[:, 0])[:, None]
        gens, gens_from, cyc = cyclic[:3]
        dmin = np.minimum.reduceat(dc[:, gens], gens_from, axis=1)[:, cyc]
        cr, cx = np.nonzero(is_least & (dmin == dc) & (dc != dc[:, [self.identity]]))
        return (dc, gi[np.argsort(coset_dc, kind="stable")],
                np.bincount(coset_dc, minlength=number[-1]), cr, cx)

    # -- structure tests on element-index sets ------------------------------

    def derived_subgroup(self, subset) -> frozenset[int]:
        """The normal closure in K = <k> of the commutators [a, b] =
        a^-1 b^-1 a b of K's generators."""
        k = np.array(self.gens_of(subset), dtype=np.intp)
        ki, mul = self.inv[k], self._products
        comms = mul(mul(mul(ki[:, None], ki), k[:, None]), k).ravel()
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
        target = r_part(len(subset), p)
        karr = np.fromiter(subset, dtype=np.intp, count=len(subset))
        pelems = self._pi_elements(karr, (p,))
        parr, pgens = np.array([self.identity]), []
        while len(parr) < target:
            member = self._mask(parr)
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
        `primes`, which are primes, as every caller passes: an element's
        order divides |G|, so it is such a product exactly when it divides
        |G|_primes."""
        return arr[pi_part(self.order, primes) % self.element_orders()[arr] == 0]

    def is_nilpotent_set(self, subset) -> bool:
        """Nilpotent iff every Sylow subgroup is normal, that is, iff for
        every prime p the subgroup has exactly |K|_p p-elements: they are
        then the only Sylow p-subgroup."""
        arr = np.fromiter(subset, dtype=np.intp, count=len(subset))
        return all(len(self._pi_elements(arr, (p,))) == r_part(len(arr), p)
                   for p in prime_divisors(len(arr)))


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


def _psl(n: int, q: int) -> PermGroup:
    """PSL(n, q) acting on the points of PG(n - 1, q), generated by the
    transvections v0 -> v0 + p^i v1 (an F_p-basis of F_q) and the
    determinant-one cycle e_k -> e_(k+1), e_(n-1) -> -+e_0: the cycle's
    powers carry the first root group to those at (k, k + 1 mod n), which
    generate SL(n, q) (Taylor, The Geometry of the Classical Groups, 1992).
    A point is its vector whose last nonzero coordinate is 1; points whose 1
    comes later are numbered first, each block in base-q order, coordinate 0
    lowest.  For n = 2 that is x -> x + p^i and x -> -1/x, infinity last."""
    F = _GF(q)
    weights = q ** np.arange(n)
    pts = np.concatenate([np.arange(q ** k)[:, None] // weights % q + (np.arange(n) == k)
                          for k in range(n - 1, -1, -1)])
    point = np.empty(q ** n, dtype=np.intp)  # the point of every nonzero vector
    point[F.mul[np.arange(1, q)[:, None, None], pts] @ weights] = np.arange(len(pts))

    def image(cols):  # point i goes to the point of (cols[0][i], ..., cols[n-1][i])
        return point[np.stack(cols, axis=1) @ weights].tolist()

    v = list(pts.T)
    gens = [image([F.add[v[0], F.mul[F.p ** i, v[1]]]] + v[1:]) for i in range(F.f)]
    gens.append(image([v[-1] if n % 2 else F.neg[v[-1]]] + v[:-1]))
    return PermGroup(len(pts), gens, name=f"PSL({n},{q})")


def _alt(n: int) -> PermGroup:
    a = (1, 2, 0, *range(3, n))
    b = (*range(1, n), 0) if n % 2 == 1 else (0, *range(2, n), 1)
    return PermGroup(n, [a, b], name=f"Alt({n})")


def _sym(n: int) -> PermGroup:
    a = (1, 0, *range(2, n))
    b = (*range(1, n), 0)
    return PermGroup(n, [a, b], name=f"Sym({n})")


def _m11() -> PermGroup:
    """M11 on 11 points, from the ATLAS generators (1,2,...,11) and
    (3,7,11,8)(4,10,5,6), numbered from 0 here (Conway et al., ATLAS of
    Finite Groups, 1985)."""
    a = tuple(list(range(1, 11)) + [0])
    b = (0, 1, 6, 9, 5, 3, 10, 2, 8, 4, 7)  # (2,6,10,7)(3,9,4,5)
    return PermGroup(11, [a, b], name="M11")


def _cyclic(p: int) -> PermGroup:
    g = (*range(1, p), 0)
    return PermGroup(p, [g], name=f"Cyclic({p})")


class _Product(PermGroup):
    """K x L on the disjoint union of their points, element (a, b) being row
    a*|L| + b: K's row a followed by L's row b shifted by deg K.  Pairs in
    that order are already in lexicographic order.  Construction checks the
    degree, multiplies the factors' orders and names the product; the
    generators, K's beside L's identity, then K's identity beside L's, are
    built and checked on the first read of `generators`, and the rows, their
    closure, which comes out in pairs order, on the first read of `perms` or
    `lookup`.  No engine path reads either.  The table, inverses and element
    orders are computed from the factors', through their uncached methods,
    so a factor that `realize` caches is left as it was."""

    def __init__(self, k: PermGroup, l: PermGroup):
        self._factors = (k, l)
        self._init(k.degree + l.degree, f"{k.name} x {l.name}")

    @functools.cached_property
    def generators(self) -> tuple[tuple[int, ...], ...]:
        k, l = self._factors
        d1, d2 = k.degree, l.degree
        gens = [g + tuple(range(d1, d1 + d2)) for g in k.generators]
        gens += [tuple(range(d1)) + tuple(x + d1 for x in g) for g in l.generators]
        return _permutations(self.degree, gens)

    def _order(self) -> int:
        k, l = self._factors
        return k.order * l.order

    def _cayley_table(self) -> np.ndarray:
        """The table from the factors' tables, which are built and not kept:
        (a, b) followed by (a', b') is t_K[a, a']*|L| + t_L[b, b'].  The outer
        sum is written for _FRONTIER // (n |L|) elements a at a time, at least
        one: t_K's rows spread across a buffer allocated once, entry a' to the
        |L| columns (a', b'), by one strided copy per offset b' (np.repeat took
        longer than the add for |L| = 2), plus t_L's rows tiled across
        as many column blocks a' as _FRONTIER entries hold, at least one, so
        that the innermost loop runs along at least |L| entries and no copy of
        t_L grows with |K|.  When one block a' is as wide as that (|L|^2 >=
        _FRONTIER), t_L is read back from the rows (0, b), columns (0, b') once
        the first block is written, since the identity is element 0 of K, and
        the t_L built for it is freed.  One 3-d broadcast with |L| innermost
        was slower than the breadth-first fill for |L| = 2."""
        k, l = self._factors
        n, m = self.order, l.order
        tk, tiled = k._cayley_table(), l._cayley_table()
        tk *= m
        reps = min(k.order, max(1, _FRONTIER // (m * m)))
        if reps > 1:
            tiled = np.tile(tiled, (1, reps))
        width = reps * m
        table = np.empty((n, n), dtype=np.int16)
        rows_of_a = table.reshape(k.order, m, n)  # rows (a, b) for each a
        step = max(1, _FRONTIER // n // m)
        spread = np.empty((step, 1, n), dtype=np.int16)
        for lo in range(0, k.order, step):
            left = spread[:min(step, k.order - lo)]
            for b in range(m):
                left[:, 0, b::m] = tk[lo:lo + step]
            for col in range(0, n, width):
                np.add(left[..., col:col + width], tiled[:, :n - col],
                       out=rows_of_a[lo:lo + step, :, col:col + width])
            if reps == 1:
                tiled = table[:m, :m]
        return table

    def _inverses(self) -> np.ndarray:
        """(a, b)^-1 = (a^-1, b^-1), row a^-1 |L| + b^-1, from the factors'
        inverses, which are not kept."""
        k, l = self._factors
        return ((k._inverses() * l.order)[:, None] + l._inverses()).ravel()

    def _element_orders(self) -> np.ndarray:
        """|(a, b)| = lcm(|a|, |b|), from the factors' orders, which are not kept."""
        k, l = self._factors
        return np.lcm.outer(k._element_orders(), l._element_orders()).ravel()


def direct_product(g1: PermGroup, g2: PermGroup) -> PermGroup:
    """g1 x g2, its order checked against ORDER_BOUND first.  It records its
    factors, and its table, inverses and element orders are built from
    theirs, which it does not keep.  Its own generators and rows are built
    on first read, which no engine path makes, so a refusal at a caller's
    bound costs the order checks, the degree check and the name."""
    if g1.order * g2.order > ORDER_BOUND:
        raise BruteForceBoundError(
            f"product order {g1.order * g2.order} exceeds the bound {ORDER_BOUND}")
    return _Product(g1, g2)


def realize(spec: str) -> PermGroup:
    """Realize a spec as the direct product of its terms (`spec_terms`), each
    read by `read_term` and realized within the bounds the module docstring
    gives, its order checked before any element is built.  Factors are
    cached by their term as written, read only on a cache miss; every call
    returns a new group that belongs to its caller: a factor comes as a
    shallow copy of the cached one, sharing its read-only rows and
    generators, and a product is assembled from the cached factors, which
    keep no table, so a table or lattice is freed with the caller's group.
    A product builds no generators or rows until they are read, which no
    engine path does, so one that a caller's bound refuses costs the
    reading of its spec, the cache lookups and `direct_product`'s checks."""
    terms = spec_terms(spec)
    for term in terms:
        if term not in _REALIZE_CACHE:
            _REALIZE_CACHE[term] = _realize_factor(read_term(term))
    if len(terms) > 1:
        return functools.reduce(direct_product, [_REALIZE_CACHE[t] for t in terms])
    return copy.copy(_REALIZE_CACHE[terms[0]])  # the cached factor never builds a table


def _realize_factor(term: Term) -> PermGroup:
    if isinstance(term, CyclicFactor):
        if term.p > 31:  # the degree is p
            raise BruteForceBoundError(f"{term} needs a prime p <= 31")
        return _cyclic(term.p)
    order = functools.partial(order_of, term)
    if isinstance(term, Sym):
        degree, order, build = term.n, lambda: math.factorial(term.n), lambda: _sym(term.n)
    elif term.family == "Alt":
        degree, build = term.n, lambda: _alt(term.n)
    elif term.family == "Lie" and term.lie_type == "A":
        degree, build = (term.q ** term.n - 1) // (term.q - 1), lambda: _psl(term.n, term.q)
    elif term.family == "Spor" and term.name == "M11":
        degree, build = 11, _m11
    else:
        raise BruteForceBoundError(f"{term} is not a built-in realization")
    # each of these groups is 2-transitive on its degree points, so it has at
    # least degree * (degree - 1) elements: a larger degree is refused without
    # computing an order such as (10^6)!, which takes seconds
    least = degree * (degree - 1)
    expected = order() if least <= ORDER_BOUND else None
    if expected is None or expected > ORDER_BOUND:
        raise BruteForceBoundError(
            f"{term} is not a built-in realization: order "
            f"{expected or f'at least {least}'} exceeds the bound {ORDER_BOUND}")
    g = build()
    if g.order != expected:
        raise RuntimeError(f"realization of {term} has order {g.order}, "
                           f"expected {expected}")
    return g


# ---------------------------------------------------------------------------
# pi-subgroup analysis

def _conjugate_inside(c: SubgroupClass, host: np.ndarray) -> np.ndarray | None:
    """A subgroup of the class c inside the subgroup whose membership mask
    is `host`, if one is: one gather of the mask over all conjugates."""
    inside = np.logical_and.reduce(host[c.conjugates], axis=1)
    k = inside.argmax()
    return c.conjugates[k] if inside[k] else None


def maximal_pi_subgroups(g: PermGroup, pi, with_structure: bool = True) -> HallReport:
    """Conjugacy classes of maximal pi-subgroups, in lattice order, and the
    E_pi/D_pi verdict.  A pi-class H is kept exactly when none of its
    `join_orders` divides |G|_pi, which reads no subgroup's elements.  If a
    pi-subgroup K > H exists, take y in K outside H: <H, y> <= K is a
    pi-group, and it is a candidate join of H, since <H, y> = <H, h y h'> =
    <H, y^k> (see _double_cosets), so its order, or a join order dividing
    it, divides |G|_pi.  Conversely, a join of pi-order is a pi-subgroup
    larger than H."""
    pi = frozenset(pi)
    hall_order = pi_part(g.order, pi)
    # a class order divides |G|, so it is a pi-number when it divides |G|_pi
    pi_classes = [c for c in g.subgroup_classes() if hall_order % c.order == 0]
    maximal = [c for c in pi_classes if all(hall_order % o for o in c.join_orders)]
    report = HallReport(pi, pi & prime_divisors(g.order), hall_order,
                        epi=any(c.order == hall_order for c in maximal),
                        dpi=len(maximal) == 1, maximal_classes=maximal)
    if report.epi and with_structure:
        report = report._replace(structural=_structural_flags(g, report, pi_classes))
    return report


def _find_hall_inside(pi_classes, host: np.ndarray,
                      sub_pi: frozenset[int]) -> np.ndarray | None:
    """A sub_pi-Hall subgroup of the subgroup whose membership mask is
    `host`, if one exists."""
    want = pi_part(np.count_nonzero(host), sub_pi)
    for c in pi_classes:
        if c.order == want and (s := _conjugate_inside(c, host)) is not None:
            return s
    return None


def _two_part_partitions(primes: frozenset[int]):
    primes = sorted(primes)
    rest = primes[1:]
    for mask in range(2 ** len(rest) - 1):
        sigma = {primes[0]} | {p for i, p in enumerate(rest) if mask >> i & 1}
        tau = set(rest) - sigma
        yield frozenset(sigma), frozenset(tau)


def _structural_flags(g: PermGroup, report: HallReport, pi_classes) -> dict:
    """The structural-lemma flags, in the shape that `brute --json` prints:
    whether the pi-Hall subgroups are solvable, and one {sigma, tau, holds}
    per two-part partition of pi_effective, sorted by (sigma, tau), holding
    when every pi-Hall subgroup has a nilpotent sigma- or tau-Hall subgroup."""
    solvable = all(g.is_solvable_set(c.rep) for c in report.hall_classes)
    hosts = [g._mask(c.conjugates[0]) for c in report.hall_classes]
    def nilpotent_hall(host, primes) -> bool:
        s = _find_hall_inside(pi_classes, host, primes)
        return s is not None and g.is_nilpotent_set(s)
    partitions = [{"sigma": sorted(sigma), "tau": sorted(tau),
                   "holds": all(nilpotent_hall(h, sigma) or nilpotent_hall(h, tau) for h in hosts)}
                  for sigma, tau in _two_part_partitions(report.pi_effective)]
    partitions.sort(key=lambda p: (p["sigma"], p["tau"]))
    return {"hall_solvable": solvable, "nilpotent_factor_per_partition": partitions}


def is_dpi_brute(g: PermGroup, pi) -> bool:
    return maximal_pi_subgroups(g, pi, with_structure=False).dpi


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
    for arr in parts:  # a finite set closed under products is a subgroup
        if not g._mask(arr)[g._products(arr[:, None], arr)].all():
            return None
    return frozenset(parts[0].tolist()), frozenset(parts[1].tolist())


def check_final_corollary(g: PermGroup, splits) -> bool:
    """The final corollary on the pi-Hall subgroups of a group with D_sigma
    and D_tau, pi = sigma u tau, given their splits (sigma-part, tau-part)
    from split_hall: one factor of every split is nilpotent."""
    return all(g.is_nilpotent_set(s) or g.is_nilpotent_set(t) for s, t in splits)

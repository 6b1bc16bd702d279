"""Child-side workload code: seeded inputs, one pass of timed operations,
and the checks on every output.

Imported by child.py after `import sylowpi` has been timed.  Every call
into sylowpi goes through a module attribute (`pb.realize`, not a name
imported from it), so the tracer's wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
import time
from pathlib import Path

import numpy as np

import sylowpi.catalog as cat
import sylowpi.cli as cli
import sylowpi.composition as comp
import sylowpi.criterion as crit
import sylowpi.permbrute as pb

import spans

clock = time.perf_counter
EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())
DEFAULT_SEED = 0

PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, math.isqrt(p) + 1))]


class Pass:
    """Per-op timings and failures of one child's share of a pass."""

    def __init__(self, tracer, cal):
        self.tracer = tracer
        self.cal = cal
        self.ops: list[list] = []
        self.failures: list[str] = []

    def begin(self) -> int:
        self.cal.between_ops()
        op_id = len(self.ops)
        if self.tracer is not None:
            self.tracer.op_id = op_id
        return op_id

    def outside_ops(self) -> None:
        """Calls from here on are not timed ops (the facts probe)."""
        if self.tracer is not None:
            self.tracer.op_id = spans.OUTSIDE_OPS

    def end(self, seconds: float, ok: bool, what: str = "", work: float | None = None) -> None:
        """Record one op; `work` is the part of `seconds` that counts towards
        wall_s (all of it unless given)."""
        work = seconds if work is None else work
        self.ops.append([seconds, ok, work, clock()])
        if not ok and len(self.failures) < 20:
            self.failures.append(what)

    def fail(self, op_id: int, what: str) -> None:
        """Mark an op failed after the fact (a check made after the pass)."""
        if self.ops[op_id][1]:
            self.ops[op_id][1] = False
            if len(self.failures) < 20:
                self.failures.append(what)

    @contextlib.contextmanager
    def untraced(self):
        """Calls made inside are checks, not workload: they record no spans."""
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True

    def result(self, **extra) -> dict:
        """Op times and wall_s in calibrated seconds (calib.py)."""
        self.cal.stop()
        ops, wall = [], 0.0
        for seconds, ok, work, t_end in self.ops:
            ops.append([self.cal.calibrated(t_end - seconds, t_end), ok])
            wall += self.cal.calibrated(t_end - work, t_end)
        return {"ops": ops, "wall_s": wall, "raw_wall_s": sum(op[2] for op in self.ops),
                "failures": self.failures, **extra}


# ---------------------------------------------------------------------------
# corpus: one `sylowpi corpus --json` invocation per fresh process

def run_corpus(job: dict, ps: Pass, setup_s: float) -> dict:
    ps.begin()
    buf = io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.run(["corpus", "--json"])
    except Exception as exc:  # any escape is a failed invocation
        dt = clock() - t0
        ps.end(setup_s + dt, False, f"corpus raised {exc!r}", work=dt)
        return ps.result()
    dt = clock() - t0
    report = json.loads(buf.getvalue())
    got = (code, report["subsets_checked"], report["disagreements"],
           report["structural_violations"], len(report["groups"]))
    ok = got == (0, 72, 0, 0, 8)
    ps.end(setup_s + dt, ok, f"corpus exit/subsets/disagree/violations/groups = {got}", work=dt)
    return ps.result()


# ---------------------------------------------------------------------------
# products: one direct product K x L per op, mirroring acceptance criterion 4

def _subsets(primes, min_size):
    primes = sorted(primes)
    for k in range(min_size, len(primes) + 1):
        yield from (frozenset(c) for c in itertools.combinations(primes, k))


def _product_op(g) -> tuple[int, int, int]:
    """Lattice, maximal pi-subgroups and the split/merge identity on g.
    Returns (classes, verified-split instances, violations)."""
    classes = g.subgroup_classes()
    spectrum = frozenset(p for p in PRIMES if g.order % p == 0)
    instances = violations = 0
    for pi in _subsets(spectrum, 2):
        r = pb.maximal_pi_subgroups(g, pi, with_structure=False)
        if not r.epi:
            continue
        halls = [c.rep for c in r.maximal_classes if c.order == r.hall_order]
        for sigma in _subsets(pi, 1):
            tau = pi - sigma
            if not tau or not any(pb.split_hall(g, h, sigma, tau) for h in halls):
                continue
            instances += 1
            split = pb.is_dpi_brute(g, sigma) and pb.is_dpi_brute(g, tau)
            violations += r.dpi != split
    return len(classes), instances, violations


def run_products(job: dict, ps: Pass, setup_s: float) -> dict:
    expected = EXPECTED["products"]
    # factors are realized before timing so an op's cost does not depend on
    # which earlier op first realized its factors
    for part in sorted({p for pair in job["pairs"] for p in pair}):
        pb.realize(part)
    for a, b in job["pairs"]:
        key = f"{a}x{b}"
        ps.begin()
        t0 = clock()
        try:
            g = pb.realize(f"{a},{b}")
            g.require_table(bound=pb.DEFAULT_LATTICE_BOUND)
            got = _product_op(g)
        except pb.BruteForceBoundError:
            got = "refused"
        except Exception as exc:  # any other escape is a failed op
            got = f"raised {exc!r}"
        dt = clock() - t0
        if isinstance(got, str):
            ps.end(dt, got == expected[key], f"{key}: {got}, expected {expected[key]}")
        else:
            classes, _, violations = got
            ps.end(dt, classes == expected[key] and violations == 0,
                   f"{key}: {classes} classes (expected {expected[key]}), "
                   f"{violations} split/merge violations")
    return ps.result()


# ---------------------------------------------------------------------------
# large: one op is one group of order 1320..2520, one group per child:
# realize, multiplication table, Sylow subgroups and solvability

def _p_part(n: int, p: int) -> int:
    part = 1
    while n % p == 0:
        n //= p
        part *= p
    return part


def _is_power_of(x: int, p: int) -> bool:
    return _p_part(x, p) == x


def run_large(job: dict, ps: Pass, setup_s: float) -> dict:
    spec = job["group"]
    order = EXPECTED["large"][spec]
    primes = [p for p in PRIMES if order % p == 0]
    ps.begin()
    t0 = clock()
    try:
        g = pb.realize(spec)
        everything = range(g.order)
        table = g.require_table(bound=pb.ORDER_BOUND)
        sylows = {p: g.sylow_in(everything, p) for p in primes}
        solvable = g.is_solvable_set(everything)
    except Exception as exc:  # any escape is a failed op
        ps.end(clock() - t0, False, f"{spec} raised {exc!r}")
        return ps.result()
    ps.end(clock() - t0, True)
    with ps.untraced():
        if g.order != order:
            ps.fail(0, f"{spec}: order {g.order}, expected {order}")
        ident = np.arange(g.order)
        for i in range(0, g.order, 256):  # chunked: keep peak memory at the table's
            if not (np.sort(table[i:i + 256], axis=1) == ident).all():
                ps.fail(0, f"{spec}: a table row in {i}..{i + 255} is not a permutation")
                break
        orders = g.element_orders()
        for p, sylow in sylows.items():
            if len(sylow) != _p_part(order, p) or not all(
                    _is_power_of(int(orders[x]), p) for x in sylow):
                ps.fail(0, f"{spec}: Sylow {p}-subgroup of order {len(sylow)}, "
                           f"expected {_p_part(order, p)}")
        if solvable:
            ps.fail(0, f"{spec}: reported solvable")
    return ps.result()


# ---------------------------------------------------------------------------
# criterion: seeded (G, pi) pairs through the arithmetic layers only

RANKS = {"A": (2, 8), "2A": (3, 8), "B": (2, 6), "C": (2, 6), "D": (4, 7), "2D": (4, 7)}
EXCEPTIONAL = ("G2", "F4", "E6", "2E6", "E7", "E8", "3D4")
SUZUKI_REE = {"2B2": 2, "2G2": 3, "2F4": 2}
FAMILIES = tuple(RANKS) + EXCEPTIONAL + tuple(SUZUKI_REE) + ("Alt", "Spor")
SPORADIC = ("M11", "M12", "M22", "M23", "M24", "J1", "J2", "J3", "J4", "HS", "McL",
            "He", "Ru", "Suz", "ON", "Co1", "Co2", "Co3", "Fi22", "Fi23", "Fi24'",
            "HN", "Ly", "Th", "B", "M", "2F4(2)'")
ODD_PAIRS = ((5, 11), (11, 23), (3, 5), (3, 7), (3, 19), (5, 7), (5, 31), (7, 29),
             (7, 43), (11, 67), (23, 47), (29, 59))
SMALL = (2, 3, 5, 7, 11, 13)
Q_STRATA = 32         # log10(q) strata between LOG_Q_MIN and LOG_Q_MAX
LOG_Q_MIN, LOG_Q_MAX = math.log10(4), 9.0
KINDS = ("simple",) * 7 + ("composite",) * 2 + ("split",)
CRITERION_OPS = 500


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (inputs here stay below 1e10)."""
    if n < 2:
        return False
    for p in PRIMES[:12]:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in PRIMES[:12]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _mult_order(q: int, r: int) -> int:
    e, x = 1, q % r
    while x != 1:
        x = x * q % r
        e += 1
    return e


def _sample(rng: random.Random, seq, k: int) -> list:
    seq = list(seq)
    out = []
    for _ in range(min(k, len(seq))):
        out.append(seq.pop(rng.randrange(len(seq))))
    return out


class _Generator:
    """Seeded (G, pi) source.  Family, q-stratum, prime-vs-prime-power and
    pi-mode follow fixed rotations, so every seed yields a pass of the same
    shape and cost; the seed picks the values inside each stratum."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.n_simple = 0
        self.n_q = 0
        self.n_lists = 0
        self.per_family = dict.fromkeys(FAMILIES, 0)

    def _q(self) -> tuple[int, int]:
        """(q, p): q log-uniform within the next stratum, and every third q
        a proper prime power.  prime_power costs O(p), so the stratum and
        the exponent fix an op's cost and the seed only moves it inside."""
        k = self.n_q
        self.n_q += 1
        width = (LOG_Q_MAX - LOG_Q_MIN) / Q_STRATA
        target = 10 ** (LOG_Q_MIN + width * (k % Q_STRATA + self.rng.random()))
        if k % 3 != 2:
            q = _next_prime(int(target))
            return q, q
        f = min(2 + (k // 3) % 4, max(2, int(math.log2(target))))
        p = _next_prime(max(2, int(target ** (1 / f))))
        return p**f, p

    def group(self) -> tuple[str, dict]:
        """A simple group spec plus the parameters pi generation needs."""
        rng = self.rng
        family = FAMILIES[self.n_simple % len(FAMILIES)]
        self.n_simple += 1
        count = self.per_family[family]
        self.per_family[family] += 1
        if family == "Alt":
            n = 5 + rng.randrange(56)
            return f"Alt:{n}", {"family": family, "n": n, "count": count}
        if family == "Spor":
            return f"Spor:{SPORADIC[rng.randrange(len(SPORADIC))]}", {"family": family,
                                                                    "count": count}
        if family in SUZUKI_REE:
            p = SUZUKI_REE[family]
            top = 14 if p == 2 else 9
            q = p ** (2 * (1 + rng.randrange(top)) + 1)
            return f"Lie:{family}:{q}", {"family": family, "q": q, "p": p, "count": count}
        q, p = self._q()
        if family in RANKS:
            lo, hi = RANKS[family]
            n = lo + rng.randrange(hi - lo + 1)
            return f"Lie:{family}:{n}:{q}", {"family": family, "q": q, "p": p, "count": count}
        return f"Lie:{family}:{q}", {"family": family, "q": q, "p": p, "count": count}

    def pi(self, info: dict) -> list[int]:
        rng = self.rng
        family, count = info["family"], info["count"]
        if family == "Alt":
            pi = _sample(rng, [p for p in PRIMES if p <= info["n"]], 2 + rng.randrange(2))
            if count % 3 == 0:
                pi.append(next(p for p in PRIMES if p > info["n"]))
            return pi
        if family == "Spor":
            if count % 2 == 0:
                return list(ODD_PAIRS[rng.randrange(len(ODD_PAIRS))])
            return _sample(rng, SMALL, 2 + rng.randrange(2))
        q, p = info["q"], info["p"]
        odd = [r for r in PRIMES[1:46] if r != p]  # odd primes below 200
        if family in SUZUKI_REE:
            torus = [r for r in odd if (q - 1) % r == 0 or (q + 1) % r == 0
                     or (q * q + 1) % r == 0]
            return _sample(rng, torus, 2) or _sample(rng, SMALL, 2)
        mode = count % 4
        if mode == 1:  # Condition III shape: p plus primes of q - 1
            return [p] + _sample(rng, [r for r in PRIMES[:25] if r != p and (q - 1) % r == 0],
                                 1 + rng.randrange(2))
        if mode == 2:  # Conditions IV/V shape: odd primes with small e(q, r)
            cands = [r for r in odd if q % r and _mult_order(q, r) <= 12]
            if len(cands) >= 2:
                return _sample(rng, cands, 2 + rng.randrange(2))
        if mode == 3 and q % 2:  # Condition VII shape: 2 plus primes of q - eps
            eps = 1 if q % 4 == 1 else -1
            cands = [r for r in odd if r != 3 and (q - eps) % r == 0]
            return [2] + (_sample(rng, cands, 1 + rng.randrange(2)) or [5 if p != 5 else 7])
        return _sample(rng, [r for r in SMALL if r != p], 2 + rng.randrange(2))

    def factors(self) -> list[str]:
        """Two or three factors (alternating), the first simple, later ones
        alternating between simple and cyclic."""
        k = self.n_lists
        self.n_lists += 1
        out = []
        for i in range(2 + k % 2):
            if i % 2:
                out.append(f"Cyclic:{SMALL[self.rng.randrange(len(SMALL))]}")
            else:
                out.append(self.group()[0])
        return out


def criterion_items(seed: int, n: int = CRITERION_OPS) -> list[tuple]:
    gen = _Generator(seed)
    items = []
    for i in range(n):
        kind = KINDS[i % len(KINDS)]
        if kind == "simple":
            spec, info = gen.group()
            items.append(("simple", spec, sorted(set(gen.pi(info)))))
        elif kind == "composite":
            factors = gen.factors()
            items.append(("composite", factors,
                          sorted(_sample(gen.rng, PRIMES[:8], 2 + gen.rng.randrange(3)))))
        else:
            factors = gen.factors()
            sigma = sorted(_sample(gen.rng, PRIMES[:4], 1 + gen.rng.randrange(2)))
            tau = sorted(_sample(gen.rng, PRIMES[4:9], 1 + gen.rng.randrange(2)))
            items.append(("split", factors, sigma, tau))
    return items


def _prepare(item):
    """Parsed, validated inputs for one criterion op (built before timing)."""
    if item[0] == "simple":
        return cat.parse_group(item[1]), frozenset(item[2])
    spec = comp.parse_factors(",".join(item[1]))
    if item[0] == "composite":
        return spec, frozenset(item[2])
    sigma, tau = frozenset(item[2]), frozenset(item[3])
    return spec, sigma, tau, comp.SplitHypothesis(sigma, tau, hall_split_assumed=True)


def _call(kind: str, args):
    if kind == "simple":
        return crit.decide_dpi_simple(*args)
    if kind == "composite":
        return comp.decide_dpi_composite(*args)
    return comp.wielandt_split(*args)


def verdict_hash(item, out) -> str:
    """Short hash of one op's input, verdict and witness (or its exception)."""
    if isinstance(out, Exception):
        canon = repr(out)
    elif item[0] == "simple":
        w = out.witness
        witness = None if w is None else [w.condition, w.subcase, sorted(w.bindings.items())]
        canon = [out.dpi, witness]
    else:
        canon = [out.dpi, out.conditional, [list(t) for t in out.trace]]
    return hashlib.sha256(json.dumps([item, canon], default=list).encode()).hexdigest()[:16]


def run_criterion(job: dict, ps: Pass, setup_s: float) -> dict:
    items = criterion_items(job["seed"])
    prepared = [_prepare(item) for item in items]
    outs = []
    for item, args in zip(items, prepared):
        ps.begin()
        t0 = clock()
        try:
            out = _call(item[0], args)
        except Exception as exc:  # any escape is a failed op
            out = exc
        dt = clock() - t0
        outs.append(out)
        ps.end(dt, not isinstance(out, Exception), f"{item}: raised {out!r}")
    hashes = [verdict_hash(item, out) for item, out in zip(items, outs)]
    extra = {"digest": hashlib.sha256("".join(hashes).encode()).hexdigest()}
    if job["seed"] == DEFAULT_SEED:
        for op_id, (got, want) in enumerate(zip(hashes, EXPECTED["criterion_seed0"])):
            if got != want:
                ps.fail(op_id, f"{items[op_id]}: verdict or witness differs from the recorded one")
    if job["check"]:
        with ps.untraced():
            for op_id, (item, args, out) in enumerate(zip(items, prepared, outs)):
                if not isinstance(out, Exception):
                    problem = _criterion_invariants(item, args, out)
                    if problem:
                        ps.fail(op_id, f"{item}: {problem}")
    if job["facts_probe"]:
        ps.outside_ops()
        _facts_probe(prepared, items)
    return ps.result(**extra)


def _simple_verdicts(factors, pi):
    return [crit.decide_dpi_simple(f, pi).dpi for f in factors
            if not isinstance(f, comp.CyclicFactor)]


def _absent_prime(orders, exclude) -> int | None:
    return next((r for r in PRIMES if r not in exclude and all(m % r for m in orders)), None)


def _criterion_invariants(item, args, out) -> str | None:
    kind = item[0]
    if kind == "split":
        spec, sigma, tau, _ = args
        want = all(_simple_verdicts(spec.factors, sigma)) and all(_simple_verdicts(spec.factors, tau))
        return None if out.dpi == want else "split verdict is not the AND over factors"
    if kind == "composite":
        spec, pi = args
        if out.dpi != all(_simple_verdicts(spec.factors, pi)):
            return "composite verdict is not the AND of its factors' verdicts"
        simple = [f for f in spec.factors if not isinstance(f, comp.CyclicFactor)]
        cyclic = {f.p for f in spec.factors if isinstance(f, comp.CyclicFactor)}
        r = _absent_prime([cat.order_of(f) for f in simple], pi | cyclic)
        if r is not None and comp.decide_dpi_composite(spec, pi | {r}).dpi != out.dpi:
            return f"adding the non-dividing prime {r} changed the verdict"
        return None
    gid, pi = args
    order = cat.order_of(gid)
    r = _absent_prime([order], pi)
    if r is not None and crit.decide_dpi_simple(gid, pi | {r}).dpi != out.dpi:
        return f"adding the non-dividing prime {r} changed the verdict"
    if 2 in pi and 3 in pi and order % 6 == 0:
        m = order
        for s in pi:
            while m % s == 0:
                m //= s
        if out.dpi != (m == 1):
            return "with {2,3} in pi ^ pi(G) the verdict differs from pi(G) <= pi"
    return None


def _facts_probe(prepared, items) -> None:
    """Known-defect probe: `facts` on every simple group of the pass.  The
    tracer counts the calls and the failures (is_prime refuses inputs above
    its Miller-Rabin bound); they are not op failures."""
    groups = {}
    for item, args in zip(items, prepared):
        factors = [args[0]] if item[0] == "simple" else args[0].factors
        for f in factors:
            if not isinstance(f, comp.CyclicFactor):
                groups[f] = None
    for gid in groups:
        try:
            cat.facts(gid)
        except (ValueError, ArithmeticError):
            pass


WORKLOADS = {
    "corpus": run_corpus,
    "products": run_products,
    "criterion": run_criterion,
    "large": run_large,
}

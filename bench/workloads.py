"""The four benchmark workloads, their answer checks and the traced layer probe.

Each workload is a closed loop with one client: the next op starts when the
previous one has finished and been checked.  Ops come in fixed rounds, so the
mix is the same in every run; the loop starts another round only while the
time spent inside ops, plus the last round's time, stays within --seconds.
Checks run between ops, outside the timed regions.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import factorial
from pathlib import Path

import numpy as np
import reference as ref

CLI_TIMEOUT_S = 120
CIRCULAR = "sym-circular:{}"


def custom_spec(n: int) -> str:
    """Two generators: a transposition and the long cycle (a directed Cayley graph)."""
    return f"sym-custom:{n}:(1,2);({','.join(str(i) for i in range(1, n + 1))})"


@dataclass(frozen=True)
class Sizes:
    """Group sizes of one benchmark scale; 'tiny' keeps the self-test fast."""

    query: int = 8  # s8-query, interval/median CLI calls
    table: int = 9  # cli-cold dist/cache, S9 probes
    bidir: int = 10  # s10-bidir
    census_size: int = 8
    census_par: int = 7
    iso: int = 6
    far: int = 9  # s10-bidir distance ops: exact word length
    near: int = 4  # s10-bidir interval ops: exact word length
    z2_step: int = 300  # z2 geodesics offset per axis
    setup_repeats: int = 5
    cache_build_repeats: int = 3


FULL = Sizes()
TINY = Sizes(query=6, table=6, bidir=7, census_size=6, census_par=5, iso=4, far=6, near=3,
             z2_step=20, setup_repeats=2, cache_build_repeats=1)
KNOWN_DEFECT = ("geodesics", "z2", (0, 0), (700, 700))


@dataclass
class Context:
    seed: int
    sizes: Sizes
    env: dict
    tmp: Path
    tracer: object
    refs: dict = field(default_factory=dict)

    def table(self, n: int, spec: str | None = None) -> ref.Table:
        """Reference table for sym-circular:n, or for a sym-custom spec."""
        key = spec or CIRCULAR.format(n)
        if key not in self.refs:
            gens = (ref.circular_generators(n) if spec is None
                    else [ref.parse_perm(t, n) for t in spec.split(":")[2].split(";")])
            self.refs[key] = ref.Table(n, gens)
        return self.refs[key]

    def cli(self, *args) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "cayleykit.cli", *args],
            env=self.env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )


@dataclass
class Op:
    kind: str
    args: tuple


class Failure(Exception):
    """A wrong answer; layer names the module whose answer was wrong."""

    def __init__(self, layer: str, message: str):
        super().__init__(message)
        self.layer = layer


def expect(cond: bool, layer: str, message: str):
    if not cond:
        raise Failure(layer, message)


def random_perm(rng: random.Random, n: int) -> tuple:
    return tuple(rng.sample(range(n), n))


def exact_word(rng: random.Random, n: int, length: int) -> tuple:
    """A random product of `length` circular transpositions whose length is exactly that.

    Every transposition changes the cycle count by one, so l(w) >= n - cycles(w);
    a word of that many letters meeting the bound is therefore geodesic.
    """
    gens = ref.circular_generators(n)
    while True:
        word = [rng.randrange(n) for _ in range(length)]
        el = tuple(range(n))
        for j in word:
            el = ref.compose(el, gens[j])
        if n - ref.cycle_count(el) == length:
            return tuple(word), el


def child_setup_seconds(ctx: Context, spec: str, strategy: str | None) -> float:
    """import cayleykit + parse_model + build_oracle in a fresh interpreter."""
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        "import cayleykit\n"
        "model = cayleykit.parse_model(sys.argv[1])\n"
        "cayleykit.build_oracle(model, strategy=sys.argv[2] or None)\n"
        "print(time.perf_counter() - t)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, spec, strategy or ""], env=ctx.env,
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def check_interval_stats(table: ref.Table, g, h, length, profile, stats):
    layer = "intervals"
    want_len, want_profile, want_count = table.interval_summary(g, h)
    expect(length == want_len, layer, f"length {length} != {want_len}")
    expect(tuple(profile) == want_profile, layer, f"profile {profile} != {want_profile}")
    expect(stats["size"] == sum(want_profile), layer, "size differs from the profile sum")
    expect(stats["geodesic_count"] == want_count, layer,
           f"geodesics {stats['geodesic_count']} != {want_count}")
    # every rank is an antichain; Sperner means no antichain beats the largest rank
    expect(stats["max_antichain"] >= max(want_profile), layer, "antichain below the largest rank")
    expect(stats["is_sperner"] == (stats["max_antichain"] <= max(want_profile)), layer,
           "Sperner flag contradicts the antichain size")


def check_median(table: ref.Table, corners, weight, minimizers, interior_size, deltas=None):
    want_w, want_mins, want_deltas, want_interior = table.median(corners)
    expect(weight == want_w, "median", f"weight {weight} != {want_w}")
    expect(sorted(minimizers) == want_mins, "median", "median set differs")
    expect(interior_size == want_interior, "median", f"interior {interior_size} != {want_interior}")
    if deltas is not None:
        expect(tuple(deltas) == want_deltas, "median", f"deltas {deltas} != {want_deltas}")


# ---------------------------------------------------------------------------
# s8-query


class S8Query:
    """sym-circular:8 table oracle; intervals with stats, medians and geodesic counts."""

    name = "s8-query"
    mix = ("interval", "geodesics", "interval", "median", "interval", "geodesics")
    fixed_rounds = None

    def setup_samples(self, ctx):
        spec = CIRCULAR.format(ctx.sizes.query)
        return [child_setup_seconds(ctx, spec, None) for _ in range(ctx.sizes.setup_repeats)]

    def prepare(self, ctx):
        import cayleykit as ck

        self.ck = ck
        self.model = ck.parse_model(CIRCULAR.format(ctx.sizes.query))
        self.oracle = ck.build_oracle(self.model)
        self.table = ctx.table(ctx.sizes.query)

    def rounds(self, rng, ctx):
        n = ctx.sizes.query
        while True:
            ops = []
            for kind in self.mix:
                if kind == "interval":
                    ops.append(Op(kind, (random_perm(rng, n),)))
                elif kind == "median":
                    ops.append(Op(kind, tuple(random_perm(rng, n) for _ in range(3))))
                else:
                    ops.append(Op(kind, (random_perm(rng, n), random_perm(rng, n))))
            yield ops

    def execute(self, op):
        ck, oracle = self.ck, self.oracle
        if op.kind == "interval":
            interval = ck.build_interval(oracle, self.model.identity, op.args[0])
            return interval.length, interval.rank_profile, ck.interval_stats(interval)
        if op.kind == "median":
            return ck.medians(oracle, ck.make_triangle(self.model, *op.args))
        return oracle.geodesics(*op.args)

    def check(self, op, ans):
        if op.kind == "interval":
            length, profile, stats = ans
            check_interval_stats(self.table, self.model.identity, op.args[0], length, profile,
                                 vars(stats))
        elif op.kind == "median":
            check_median(self.table, op.args, ans.weight, ans.minimizers, ans.interior_size)
        else:
            want_len, _, want_count = self.table.interval_summary(*op.args)
            expect((ans.distance, ans.count) == (want_len, want_count), "cayley",
                   f"geodesics {(ans.distance, ans.count)} != {(want_len, want_count)}")


# ---------------------------------------------------------------------------
# s10-bidir


class S10Bidir:
    """sym-circular:10 under bidirectional search: distances and near intervals."""

    name = "s10-bidir"
    mix = ("distance", "interval")
    fixed_rounds = None

    def strategy(self, ctx):
        # at full size bidirectional search is the default; the tiny scale forces it
        return None if ctx.sizes.bidir >= 10 else "bidirectional"

    def setup_samples(self, ctx):
        spec = CIRCULAR.format(ctx.sizes.bidir)
        return [child_setup_seconds(ctx, spec, self.strategy(ctx))
                for _ in range(ctx.sizes.setup_repeats)]

    def prepare(self, ctx):
        import cayleykit as ck

        self.ck = ck
        self.model = ck.parse_model(CIRCULAR.format(ctx.sizes.bidir))
        self.oracle = ck.build_oracle(self.model, strategy=self.strategy(ctx))
        self.ctx = ctx

    def rounds(self, rng, ctx):
        n = ctx.sizes.bidir
        while True:
            ops = []
            for kind, length in zip(self.mix, (ctx.sizes.far, ctx.sizes.near)):
                g = random_perm(rng, n)
                word, w = exact_word(rng, n, length)
                ops.append(Op(kind, (g, ref.compose(g, w), word)))
            yield ops

    def execute(self, op):
        g, h, _ = op.args
        if op.kind == "distance":
            with self.ctx.tracer.span("cayley.distance", strategy=self.oracle.strategy) as rec:
                d = self.oracle.distance(g, h)
                if rec is not None:
                    rec["attrs"]["d"] = d
            return d
        return self.ck.build_interval(self.oracle, g, h)

    def check(self, op, ans):
        g, h, word = op.args
        n = len(g)
        gap = ref.parity(ref.compose(ref.inverse(g), h))
        if op.kind == "distance":
            expect(ans % 2 == gap, "cayley", "distance parity differs from permutation parity")
            expect(ans == len(word), "cayley", f"distance {ans} != {len(word)} (minimal word)")
            return
        iv = ans
        expect(iv.length == len(word), "intervals", f"length {iv.length} != {len(word)}")
        expect(iv.length % 2 == gap, "intervals", "length parity differs from permutation parity")
        expect((iv.bottom, iv.top) == (g, h), "intervals", "wrong end points")
        expect(iv.rank_profile[0] == 1 == iv.rank_profile[-1], "intervals", "ends are not single")
        expect(sum(iv.rank_profile) == iv.size, "intervals", "profile does not sum to the size")
        ginv = ref.inverse(g)
        for i, rank_set in enumerate(iv.rank_sets):
            expect(all(ref.parity(ref.compose(ginv, x)) == i % 2 for x in rank_set), "intervals",
                   f"rank {i} holds an element of the wrong parity")
        gens = ref.circular_generators(n)
        x = g
        for i, j in enumerate(word, start=1):
            x = ref.compose(x, gens[j])
            expect(iv.element_rank.get(x) == i, "intervals", "the generating word leaves the interval")


# ---------------------------------------------------------------------------
# census


class Census:
    """The whole-group sweeps: Figure 6 sizes, Figure 5 lengths, the pool, iso classes."""

    name = "census"
    # A round: one Figure 6 sweep, the slowest op and so the round's tail, and
    # nine Figure 5 sweeps, the fastest, spread between the pool census and
    # the iso classify.  Figure 5 sweeps are three quarters of the ops, so the
    # median op is always one of them (with one call of each sweep it fell
    # between the pool census and the iso classify, whose times cross from run
    # to run, and varied 1.8-fold).  Two rounds (~37 s) per run, whatever
    # --seconds is, keep that true however fast the machine, and spread the
    # median's samples over the run, since the host's speed drifts over seconds.
    mix = ("census_size", *("census_length",) * 3, "census_parallel",
           *("census_length",) * 3, "classify_iso", *("census_length",) * 3)
    fixed_rounds = 2
    S8_SIZE_CLASSES = 386
    S8_SIZE_MAX = 4280

    def setup_samples(self, ctx):
        spec = CIRCULAR.format(ctx.sizes.census_size)
        return [child_setup_seconds(ctx, spec, None) for _ in range(ctx.sizes.setup_repeats)]

    def prepare(self, ctx):
        import cayleykit as ck

        self.ck = ck
        self.ctx = ctx
        s = ctx.sizes
        self.model = ck.parse_model(CIRCULAR.format(s.census_size))
        self.par_model = ck.parse_model(CIRCULAR.format(s.census_par))
        self.iso_model = ck.parse_model(CIRCULAR.format(s.iso))
        self.iso_oracle = ck.build_oracle(self.iso_model)
        self.iso_elements = list(self.iso_model.elements())
        self.size_census = {}

    def rounds(self, rng, ctx):
        while True:
            yield [Op(kind, ()) for kind in self.mix]

    def execute(self, op):
        ck = self.ck
        if op.kind == "census_size":
            return ck.census(self.model, "size")
        if op.kind == "census_length":
            return ck.census(self.model, "length")
        if op.kind == "census_parallel":
            return ck.census(self.par_model, "size", workers=2)
        return ck.classify(self.iso_oracle, self.iso_elements, "iso")

    def reference_sizes(self, n):
        """Whole-group interval-size histogram, brute force; skipped above n = 7."""
        if n not in self.size_census:
            self.size_census[n] = self.ctx.table(n).interval_size_census()
        return self.size_census[n]

    def check(self, op, ans):
        ctx = self.ctx
        if op.kind == "classify_iso":
            check_iso(ctx.table(ctx.sizes.iso), self.iso_elements, ans)
            return
        n = self.par_model.n if op.kind == "census_parallel" else self.model.n
        table = ctx.table(n)
        expect(ans.total == factorial(n), "classify", f"total {ans.total} != {n}!")
        for sig, rep in ans.representatives.items():
            el = ref.parse_perm(rep, n)
            got = table.length(el) if op.kind == "census_length" else sum(table.interval_summary(
                tuple(range(n)), el)[1])
            expect(got == sig, "classify", f"representative {rep} has signature {got}, not {sig}")
        if op.kind == "census_length":
            expect(ans.counts == table.sphere_sizes(), "classify", "length histogram != BFS spheres")
        elif n <= 7:
            expect(ans.counts == self.reference_sizes(n), "classify", "size histogram differs")
        else:
            expect(len(ans.counts) == self.S8_SIZE_CLASSES, "classify",
                   f"{len(ans.counts)} size classes, expected {self.S8_SIZE_CLASSES}")
            expect(max(ans.counts) == self.S8_SIZE_MAX, "classify",
                   f"largest interval {max(ans.counts)}, expected {self.S8_SIZE_MAX}")


def check_iso(table: ref.Table, elements, result):
    """Iso classes partition the group and never mix grading or geodesic counts."""
    seen = [g for members in result.classes for g in members]
    expect(not result.unclassified, "classify", "unclassified elements")
    expect(len(seen) == len(elements) and set(seen) == set(elements), "classify",
           "iso classes do not partition the group")
    e = tuple(range(table.n))
    for members in result.classes:
        shapes = {table.interval_summary(e, g) for g in members}
        expect(len(shapes) == 1, "classify", "an iso class mixes interval shapes")


# ---------------------------------------------------------------------------
# cli-cold


def z2_text(p) -> str:
    return f"({p[0]},{p[1]})"


class CliCold:
    """One `python -m cayleykit.cli` process at a time, cold, with seeded elements."""

    name = "cli-cold"
    mix = ("dist_table", "dist_cached", "dist_custom", "interval_stats", "median",
           "geodesics_z2", "cache_verify")
    # 28 calls, ~33 s: a fixed count keeps the tail at each round's slowest
    # call however fast the machine (the 10-beyond percentile needs more than
    # 20 samples); the tail is the median over the four rounds
    fixed_rounds = 4

    def cache_build(self, ctx):
        n = ctx.sizes.table
        t0 = time.perf_counter()
        proc = ctx.cli("cache", "build", "--model", CIRCULAR.format(n), "--cache-dir", str(ctx.tmp))
        elapsed = time.perf_counter() - t0
        want = f"wrote {ctx.tmp / f'sym-circular-{n}.cayd'} ({factorial(n)} distances)\n"
        if proc.returncode != 0 or proc.stdout != want:
            raise RuntimeError(f"cache build failed: {proc.stderr.strip() or proc.stdout}")
        return elapsed

    def setup_samples(self, ctx):
        return [self.cache_build(ctx) for _ in range(ctx.sizes.cache_build_repeats)]

    def prepare(self, ctx):
        self.ctx = ctx
        s = ctx.sizes
        self.circ = CIRCULAR.format(s.table)
        self.custom = custom_spec(s.table)
        self.small = CIRCULAR.format(s.query)
        ctx.table(s.table)
        ctx.table(s.table, self.custom)
        ctx.table(s.query)

    def rounds(self, rng, ctx):
        s = ctx.sizes
        while True:
            ops = []
            for kind in self.mix:
                if kind in ("dist_table", "dist_cached", "dist_custom"):
                    args = (random_perm(rng, s.table), random_perm(rng, s.table))
                elif kind == "interval_stats":
                    args = (random_perm(rng, s.query), random_perm(rng, s.query))
                elif kind == "median":
                    args = tuple(random_perm(rng, s.query) for _ in range(3))
                elif kind == "geodesics_z2":
                    src = (rng.randint(-50, 50), rng.randint(-50, 50))
                    step = s.z2_step
                    args = (src, (src[0] + rng.choice((-step, step)), src[1] + rng.choice((-step, step))))
                else:
                    args = ()
                ops.append(Op(kind, args))
            yield ops

    def argv(self, op):
        fmt = ref.format_perm
        cache = ("--cache-dir", str(self.ctx.tmp))
        if op.kind == "dist_table":
            return ("dist", "--model", self.circ, *map(fmt, op.args))
        if op.kind == "dist_cached":
            return ("dist", "--model", self.circ, *cache, *map(fmt, op.args))
        if op.kind == "dist_custom":
            return ("dist", "--model", self.custom, *map(fmt, op.args))
        if op.kind == "interval_stats":
            return ("interval", "--model", self.small, *map(fmt, op.args), "--stats")
        if op.kind == "median":
            return ("median", "--model", self.small, *map(fmt, op.args))
        if op.kind == "geodesics_z2":
            return ("geodesics", "--model", "z2", *map(z2_text, op.args))
        return ("cache", "verify", "--model", self.circ, *cache)

    def execute(self, op):
        with self.ctx.tracer.span(f"cli.{op.kind}"):
            return self.ctx.cli(*self.argv(op))

    def check(self, op, proc):
        expect(proc.returncode == 0, "cli",
               f"{op.kind} exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        try:
            self.check_output(op, proc.stdout)
        except (ValueError, KeyError) as exc:
            raise Failure("cli", f"{op.kind} printed unreadable output: {exc}") from None

    def check_output(self, op: Op, out: str):
        ctx = self.ctx
        s = ctx.sizes
        if op.kind in ("dist_table", "dist_cached", "dist_custom"):
            table = ctx.table(s.table, self.custom if op.kind == "dist_custom" else None)
            want = f"{table.distance(*op.args)}\n"
        elif op.kind == "geodesics_z2":
            d, count = ref.z2_geodesics(*op.args)
            want = f"distance: {d}\ncount: {count}\n"
        elif op.kind == "cache_verify":
            want = f"ok {ctx.tmp / f'sym-circular-{s.table}.cayd'}\n"
        elif op.kind == "interval_stats":
            check_interval_text(ctx.table(s.query), op.args, out)
            return
        else:
            rep = json.loads(out)
            n = s.query
            check_median(ctx.table(n), op.args, rep["weight"], [ref.parse_perm(x, n) for x in rep["medians"]],
                         rep["interior_size"], rep["deltas"])
            expect(rep["parity_ok"] is True, "median", "parity check did not pass")
            return
        expect(out == want, "cli", f"{op.kind} printed {out[:80]!r}, expected {want!r}")


def check_interval_text(table: ref.Table, args, out: str):
    fields, ranks = {}, []
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        if key.startswith("rank "):
            ranks.append({ref.parse_perm(t, table.n) for t in value.split()})
        else:
            fields[key] = value
    profile = tuple(int(c) for c in fields["profile"].split(","))
    stats = {
        "size": int(fields["size"]),
        "geodesic_count": int(fields["geodesics"]),
        "max_antichain": int(fields["max antichain"]),
        "is_sperner": fields["sperner"] == "yes",
    }
    check_interval_stats(table, *args, int(fields["length"]), profile, stats)
    expect(ranks == table.interval_rank_sets(*args), "intervals", "rank sets differ")


def run_known_defect(ctx: Context) -> dict:
    """The z2 geodesic count that ends in RecursionError; run outside the timed loop."""
    kind, model, src, dst = KNOWN_DEFECT
    with ctx.tracer.span("cli.known_defect") as rec:
        proc = ctx.cli(kind, "--model", model, z2_text(src), z2_text(dst))
        d, count = ref.z2_geodesics(src, dst)
        ok = proc.returncode == 0 and proc.stdout == f"distance: {d}\ncount: {count}\n"
        if rec is not None and not ok:
            rec["error"] = f"exit {proc.returncode}"
    return {"call": f"geodesics --model z2 {z2_text(src)} {z2_text(dst)}",
            "exit": proc.returncode, "ok": ok,
            "stderr_tail": proc.stderr.strip().splitlines()[-1:] if proc.stderr else []}


WORKLOADS = {w.name: w for w in (S8Query, S10Bidir, Census, CliCold)}


# ---------------------------------------------------------------------------
# the layer probe of a traced run


def probe(ctx: Context) -> list:
    """One fixed call per per-layer metric, so every traced run reports every layer.

    Returns the failures found (wrong answers or exceptions), as (layer, message).
    """
    import cayleykit as ck
    from cayleykit import ranking

    tr, s, rng = ctx.tracer, ctx.sizes, random.Random(ctx.seed ^ 0x5EED)
    failures = []

    def attempt(layer, fn):
        try:
            fn()
        except Failure as exc:
            failures.append((exc.layer, str(exc)))
        except Exception as exc:  # any package error is a failed call of that layer
            failures.append((layer, f"{type(exc).__name__}: {exc}"))

    def cli_import():
        with tr.span("cli.import"):
            proc = subprocess.run([sys.executable, "-c", "import cayleykit"], env=ctx.env,
                                  capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        expect(proc.returncode == 0, "cli", "import failed")

    def parse_custom():
        model = ck.parse_model(custom_spec(s.table))
        expect(len(model.generating_set) == 2, "groups", "custom set lost a generator")

    def rank_rows_pass():
        # the call pattern of a table build: every permutation times each generator
        perms = ranking.all_perms_array(s.table)
        gens = ck.circular_model(s.table).generating_set.generators
        with tr.span("ranking.rank_rows_pass", n=s.table):
            ranks = [ranking.rank_rows(np.asarray(g, dtype=np.uint8)[perms]) for g in gens]
        for got, want in zip(ranks, ctx.table(s.table).succ):
            expect(bool((got == want).all()), "ranking", "rank_rows disagrees with lexicographic rank")

    def perm_rank_loop():
        perms = [random_perm(rng, s.query) for _ in range(2000)]
        table = ctx.table(s.query)
        with tr.span("ranking.perm_rank_loop", calls=len(perms)):
            ranks = [ck.perm_rank(p) for p in perms]
        expect(ranks == [table.index(p) for p in perms], "ranking", "perm_rank disagrees")

    def table_queries():
        model = ck.circular_model(s.query)
        oracle = ck.DistanceOracle(model, "table")
        pairs = [(random_perm(rng, s.query), random_perm(rng, s.query)) for _ in range(2000)]
        with tr.span("cayley.distance_loop", calls=len(pairs)):
            got = [oracle.distance(g, h) for g, h in pairs]
        table = ctx.table(s.query)
        expect(got == [table.distance(g, h) for g, h in pairs], "cayley", "table distance differs")

    def cache_layer():
        model = ck.circular_model(s.table)
        oracle = ck.DistanceOracle(model, "table")
        path = ck.save_table_cache(model, oracle.lengths, ck.cache_path(model, ctx.tmp))
        loaded = ck.load_table_cache(model, path)
        expect(bool((loaded == ctx.table(s.table).lengths).all()), "cayley", "cache load differs")
        ck.verify_table_cache(model, path)

    def s8_ops():
        wl = S8Query()
        wl.prepare(ctx)
        for op in next(wl.rounds(rng, ctx))[:4]:
            wl.check(op, wl.execute(op))

    def s10_ops():
        wl = S10Bidir()
        wl.prepare(ctx)
        for op in next(wl.rounds(rng, ctx)):
            wl.check(op, wl.execute(op))

    def census_pool_and_base():
        # the pool census beside its single-worker base, so its cost is a ratio
        model = ck.circular_model(s.census_par)
        want = ctx.table(s.census_par).interval_size_census()
        for workers in (1, 2):
            result = ck.census(model, "size", workers=workers)
            expect(result.counts == want, "classify", f"census with {workers} workers differs")

    def cli_calls():
        wl = CliCold()
        wl.prepare(ctx)
        for op in next(wl.rounds(rng, ctx)):
            wl.check(op, wl.execute(op))

    for layer, fn in (("cli", cli_import), ("groups", parse_custom), ("ranking", rank_rows_pass),
                      ("ranking", perm_rank_loop), ("cayley", table_queries),
                      ("cayley", cache_layer), ("intervals", s8_ops), ("cayley", s10_ops),
                      ("classify", census_pool_and_base), ("cli", cli_calls)):
        with tr.span(f"probe.{fn.__name__}"):
            attempt(layer, fn)
    return failures

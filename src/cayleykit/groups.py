"""Group models: elements, generating sets and the operations the rest builds on.

Composition convention
----------------------
Products read left to right: (a * b) means "apply a first, then b", i.e. for
permutations (a * b)(i) = b(a(i)).  This matches walking an edge of the Cayley
graph by right multiplication, g -> g*s, so a word s1 s3 s2 is the element
reached from the identity by applying s1, then s3, then s2.  With the circular
generators of S4 this gives s1*s3*s2 = (1,3,4,2); the opposite convention does
not, and is not used anywhere in this package.

Elements are plain payloads: permutations are 0-based image tuples (img[i] is
the image of point i), Z^2 elements are (a, b) int pairs, cyclic elements are
residues in 0..n-1.  One-based cycle notation exists only in parse/format.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import factorial, gcd

from .errors import CapabilityError, ElementSyntaxError, ModelError

Element = object
Word = tuple[int, ...]


@dataclass(frozen=True)
class GeneratingSet:
    """An ordered generating set; inverse_closed means the set equals its inverses."""

    generators: tuple
    inverse_closed: bool

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)


class GroupModel:
    """Shared surface of the concrete models; not meant to be instantiated."""

    name: str
    generating_set: GeneratingSet
    identity: Element
    is_finite: bool
    order: int | None

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def check_element(self, el):
        raise NotImplementedError

    def parse_element(self, text: str):
        raise NotImplementedError

    def format_element(self, el) -> str:
        raise NotImplementedError

    def elements(self):
        """All elements of a finite model, in canonical order."""
        raise CapabilityError(f"{self.name} is infinite; cannot enumerate elements")

    def conjugate(self, g, p):
        """p^-1 * g * p."""
        return self.multiply(self.multiply(self.inverse(p), g), p)

    def __eq__(self, other):
        return isinstance(other, GroupModel) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


# ---------------------------------------------------------------------------
# permutation helpers (0-based image tuples)


def perm_multiply(a, b):
    """Apply a first, then b."""
    return tuple(b[x] for x in a)


def perm_inverse(a):
    out = [0] * len(a)
    for i, v in enumerate(a):
        out[v] = i
    return tuple(out)


def perm_parity(a) -> int:
    """0 for even permutations, 1 for odd."""
    return sum(len(c) - 1 for c in perm_to_cycles(a)) % 2


def cycle_structure(a) -> tuple:
    """Multiset of nontrivial cycle lengths, sorted descending, e.g. (3, 2)."""
    return tuple(sorted((len(c) for c in perm_to_cycles(a)), reverse=True))


def cycles_to_perm(n: int, cycles) -> tuple:
    """Build an image tuple from 1-based cycles like [(1, 3), (2, 5)]."""
    img = list(range(n))
    touched = set()
    for cyc in cycles:
        for v in cyc:
            if not 1 <= v <= n:
                raise ElementSyntaxError(f"point {v} out of range 1..{n}")
            if v in touched:
                raise ElementSyntaxError(f"point {v} appears in two cycles")
            touched.add(v)
        for i, v in enumerate(cyc):
            img[v - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(img)


def perm_to_cycles(a) -> list[tuple]:
    """Nontrivial cycles, each starting at its smallest point, 1-based."""
    n = len(a)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i] or a[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j + 1)
            j = a[j]
        cycles.append(tuple(cyc))
    return cycles


_CYCLE_RE = re.compile(r"\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)")


def parse_cycles(text: str, n: int) -> tuple:
    """Parse 1-based cycle notation; 'e' and '()' denote the identity."""
    s = text.strip()
    if s in ("e", "()", ""):
        return tuple(range(n))
    pos = 0
    cycles = []
    while pos < len(s):
        m = _CYCLE_RE.match(s, pos)
        if m is None:
            raise ElementSyntaxError(f"bad cycle notation {text!r} at position {pos}")
        cycles.append(tuple(int(v) for v in m.group(1).split(",")))
        pos = m.end()
        while pos < len(s) and s[pos].isspace():
            pos += 1
    for cyc in cycles:
        if len(cyc) < 2:
            raise ElementSyntaxError(f"singleton cycle in {text!r}; omit fixed points")
        if len(set(cyc)) != len(cyc):
            raise ElementSyntaxError(f"repeated point within a cycle in {text!r}")
    return cycles_to_perm(n, cycles)


def format_perm(a) -> str:
    cycles = perm_to_cycles(a)
    if not cycles:
        return "e"
    return "".join("(" + ",".join(str(v) for v in cyc) + ")" for cyc in cycles)


# ---------------------------------------------------------------------------
# models


class SymmetricModel(GroupModel):
    """S_n with a circular, adjacent or custom generating set."""

    is_finite = True

    def __init__(self, n: int, kind: str, generators=None, require_generating: bool = True):
        if kind in ("circular", "adjacent"):
            minimum = 3 if kind == "circular" else 2
            if n < minimum:
                raise ModelError(f"sym-{kind} needs n >= {minimum}, got {n}")
        if n > 12:
            raise ModelError(f"symmetric models support n <= 12, got {n}")
        self.n = n
        self.kind = kind
        self.identity = tuple(range(n))
        if kind == "circular":
            gens = [cycles_to_perm(n, [(i, i + 1)]) for i in range(1, n)]
            gens.append(cycles_to_perm(n, [(n, 1)]))
        elif kind == "adjacent":
            gens = [cycles_to_perm(n, [(i, i + 1)]) for i in range(1, n)]
        elif kind == "custom":
            gens = [
                parse_cycles(g, n) if isinstance(g, str) else self.check_element(g)
                for g in (generators or ())
            ]
            if not gens:
                raise ModelError("custom model needs at least one generator")
            if len(gens) > 200:  # a table build holds one int32 table of n! ranks per generator
                raise ModelError(f"custom set has {len(gens)} generators, limit is 200")
            if len(set(gens)) != len(gens):
                raise ModelError("duplicate generator in custom set")
            if self.identity in gens:
                raise ModelError("the identity is never a generator")
        else:
            raise ModelError(f"unknown symmetric kind {kind!r}")
        inv_closed = {perm_inverse(g) for g in gens} == set(gens)
        self.generating_set = GeneratingSet(tuple(gens), inv_closed)
        self.order = factorial(n)
        if kind == "custom":
            gen_text = ";".join(format_perm(g) for g in gens)
            self.name = f"sym-custom:{n}:{gen_text}"
            if require_generating and not is_generating(self, self.generating_set):
                raise ModelError(f"custom set {gen_text} does not generate S_{n}")
        else:
            self.name = f"sym-{kind}:{n}"

    def multiply(self, a, b):
        if len(a) != self.n or len(b) != self.n:
            raise ModelError(f"element size mismatch for {self.name}")
        return perm_multiply(a, b)

    def inverse(self, a):
        if len(a) != self.n:
            raise ModelError(f"element size mismatch for {self.name}")
        return perm_inverse(a)

    def check_element(self, el):
        el = tuple(el)
        if len(el) != self.n or sorted(el) != list(range(self.n)):
            raise ModelError(f"{el!r} is not a permutation of 0..{self.n - 1}")
        return el

    def parse_element(self, text):
        return parse_cycles(text, self.n)

    def format_element(self, el):
        return format_perm(el)

    def elements(self):
        from itertools import permutations

        return permutations(range(self.n))


class CyclicModel(GroupModel):
    """C_n generated by x (semigroup mode) or by {x, x^-1}."""

    is_finite = True

    def __init__(self, n: int, inverse_closed: bool = True):
        if n < 2:
            raise ModelError(f"cyclic model needs n >= 2, got {n}")
        self.n = n
        self.identity = 0
        if inverse_closed and n > 2:
            gens = (1, n - 1)
        else:
            gens = (1,)
        self.generating_set = GeneratingSet(gens, inverse_closed or n == 2)
        suffix = "" if inverse_closed else ":semigroup"
        self.name = f"cyclic:{n}{suffix}"
        self.order = n

    def multiply(self, a, b):
        return (self.check_element(a) + self.check_element(b)) % self.n

    def inverse(self, a):
        return (-self.check_element(a)) % self.n

    def check_element(self, el):
        if not isinstance(el, int) or isinstance(el, bool) or not 0 <= el < self.n:
            raise ModelError(f"{el!r} is not a residue in 0..{self.n - 1}")
        return el

    def parse_element(self, text):
        try:
            v = int(text.strip())
        except ValueError:
            raise ElementSyntaxError(f"bad residue {text!r}") from None
        if not 0 <= v < self.n:
            raise ElementSyntaxError(f"residue {v} out of range 0..{self.n - 1}")
        return v

    def format_element(self, el):
        return str(el)

    def elements(self):
        return range(self.n)


class FreeAbelianModel(GroupModel):
    """Z^2 with generators (1,0), (0,1), (-1,0), (0,-1)."""

    is_finite = False
    order = None

    def __init__(self):
        self.identity = (0, 0)
        self.generating_set = GeneratingSet(((1, 0), (0, 1), (-1, 0), (0, -1)), True)
        self.name = "z2"

    def multiply(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def inverse(self, a):
        return (-a[0], -a[1])

    def check_element(self, el):
        el = tuple(el)
        if len(el) != 2 or not all(isinstance(v, int) for v in el):
            raise ModelError(f"{el!r} is not an integer pair")
        return el

    def parse_element(self, text):
        m = re.fullmatch(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)", text.strip())
        if m is None:
            raise ElementSyntaxError(f"bad Z^2 element {text!r}; expected (a,b)")
        return (int(m.group(1)), int(m.group(2)))

    def format_element(self, el):
        return f"({el[0]},{el[1]})"


def circular_model(n: int) -> SymmetricModel:
    return SymmetricModel(n, "circular")


def adjacent_model(n: int) -> SymmetricModel:
    return SymmetricModel(n, "adjacent")


def custom_model(n: int, generators, require_generating: bool = True) -> SymmetricModel:
    return SymmetricModel(n, "custom", generators, require_generating)


def cyclic_model(n: int, inverse_closed: bool = True) -> CyclicModel:
    return CyclicModel(n, inverse_closed)


def z2_model() -> FreeAbelianModel:
    return FreeAbelianModel()


def parse_model(spec: str) -> GroupModel:
    """Build a model from a descriptor like sym-circular:8 or cyclic:6:semigroup."""
    parts = spec.strip().split(":")
    head = parts[0]
    try:
        if head == "z2" and len(parts) == 1:
            return z2_model()
        if head in ("sym-circular", "sym-adjacent") and len(parts) == 2:
            n = int(parts[1])
            return SymmetricModel(n, head.removeprefix("sym-"))
        if head == "sym-custom" and len(parts) == 3:
            n = int(parts[1])
            gen_texts = [t for t in parts[2].split(";") if t.strip()]
            gens = [parse_cycles(t, n) for t in gen_texts]
            return custom_model(n, gens)
        if head == "cyclic" and len(parts) in (2, 3):
            n = int(parts[1])
            if len(parts) == 3:
                if parts[2] != "semigroup":
                    raise ElementSyntaxError(f"unknown cyclic variant {parts[2]!r}")
                return cyclic_model(n, inverse_closed=False)
            return cyclic_model(n)
    except ValueError as exc:
        raise ElementSyntaxError(f"bad model descriptor {spec!r}: {exc}") from None
    raise ElementSyntaxError(f"bad model descriptor {spec!r}")


# ---------------------------------------------------------------------------
# words and generation


def apply_word(model: GroupModel, start, word) -> Element:
    """Walk start * s_w1 * s_w2 * ...; letters are 0-based generator indices."""
    gens = model.generating_set.generators
    out = start
    for idx in word:
        if not 0 <= idx < len(gens):
            raise ModelError(f"word letter {idx} out of range for {len(gens)} generators")
        out = model.multiply(out, gens[idx])
    return out


def _sims_filter(n: int, gens) -> list:
    """At most n(n-1)/2 permutations generating the same group as gens.

    Distinct non-identity gens pass through as they are while they fit the
    bound; past it, Sims' filter sifts them.  Each kept g owns the slot
    (i, g[i]), i its first moved point, so g[i] > i.  A g landing on a taken
    slot held by t is replaced by g * t^-1, which fixes 0..i and generates the
    same group together with t.
    """
    identity = tuple(range(n))
    gens = [g for g in dict.fromkeys(gens) if g != identity]
    if len(gens) <= n * (n - 1) // 2:
        return gens
    slots: dict = {}
    for g in gens:
        while g != identity:
            i = next(x for x in range(n) if g[x] != x)
            held = slots.get((i, g[i]))
            if held is None:
                slots[i, g[i]] = (g, perm_inverse(g))
                break
            g = perm_multiply(g, held[1])
    return [g for g, _ in slots.values()]


def _subgroup_order(n: int, gens: list) -> int:
    """Deterministic Schreier-Sims order of <gens> acting on 0..n-1.

    Each level multiplies the order by the orbit length of its base point and
    passes the sifted Schreier generators of the point stabiliser to the next.
    """
    order = 1
    gens = _sims_filter(n, gens)
    while gens:
        b = min(i for g in gens for i in range(n) if g[i] != i)
        transversal = {b: tuple(range(n))}
        queue = [b]
        while queue:
            x = queue.pop()
            for g in gens:
                y = g[x]
                if y not in transversal:
                    transversal[y] = perm_multiply(transversal[x], g)
                    queue.append(y)
        back = {y: perm_inverse(t) for y, t in transversal.items()}
        order *= len(transversal)
        schreier = (
            perm_multiply(perm_multiply(tx, g), back[g[x]])
            for x, tx in transversal.items()
            for g in gens
        )
        gens = _sims_filter(n, schreier)
    return order


def is_generating(model: GroupModel, S: GeneratingSet) -> bool:
    """True iff the closure of S under multiplication reaches every element."""
    if not model.is_finite:
        raise CapabilityError(f"{model.name} is infinite; generation check unsupported")
    if isinstance(model, CyclicModel):
        return gcd(model.n, *S.generators) == 1
    return _subgroup_order(model.n, list(S.generators)) == model.order

"""Named lattices and the expression grammar built on them.

Expressions are sums of terms like "2U+E6v(3)+2A2": an optional multiplicity,
a base name, an optional 'v' for the dual, and an optional (m) rescale, so
"E6v(3)" is the dual of E6 rescaled by 3.  Base names cover the hyperbolic
plane U, the root lattices A<n>, D<n>, E6/E7/E8, the two-dimensional level-p
lattices L<p> = [[2,1],[1,(p+1)/2]] for p = 3 mod 4, and the sporadic
definite lattices T4 and T8.  T8 is never stored as a Gram matrix: it is
constructed on demand as the unique nontrivial even overlattice of E7+A1(5)
with determinant 5.

Fixed Gram matrices live in data/catalog.json; a user catalog (the --catalog
CLI flag or the REFLECTOR_CATALOG environment variable) can add or override
entries with the same JSON shape.
"""

from __future__ import annotations

import json
import re
from importlib import resources

from .lattices import Lattice, direct_sum

_TERM_RE = re.compile(r"^(\d*)([A-Z][A-Za-z]*?\d*)(v?)(?:\((\d+)\))?$")


def _load_default_registry() -> dict:
    text = resources.files(__package__).joinpath("data/catalog.json").read_text()
    return json.loads(text)["lattices"]


def _gram_A(n: int) -> list[list[int]]:
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = -1
    return g


def _gram_D(n: int) -> list[list[int]]:
    # chain on nodes 0..n-2, with the last node attached to node n-3
    if n < 3:
        raise ValueError("D<n> needs n >= 3")
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    for i in range(n - 2):
        g[i][i + 1] = g[i + 1][i] = -1
    g[n - 1][n - 3] = g[n - 3][n - 1] = -1
    return g


def _gram_L(p: int) -> list[list[int]]:
    if p % 4 != 3:
        raise ValueError(f"L{p} requires p = 3 mod 4 so the Gram matrix is even")
    return [[2, 1], [1, (p + 1) // 2]]


class Catalog:
    """Resolver from names and expressions to lattices."""

    def __init__(self, extra: dict | None = None):
        self.registry = dict(_load_default_registry())
        if extra:
            self.registry.update(extra)
        self._t8_gram: list[list[int]] | None = None

    @classmethod
    def from_file(cls, path: str) -> "Catalog":
        with open(path) as fh:
            data = json.load(fh)
        return cls(extra=data.get("lattices", {}))

    def _build_t8(self) -> Lattice:
        """A fresh T8 on each call; only the overlattice search is cached."""
        if self._t8_gram is None:
            from . import discforms

            seed = self.build("E7").direct_sum(self.build("A1").rescaled(5))
            over = discforms.even_overlattices(seed, 5)
            if len(over) != 1:
                raise ArithmeticError("expected a unique even overlattice for T8")
            self._t8_gram = over[0].gram
        return Lattice([row[:] for row in self._t8_gram], name="T8")

    def build(self, name: str) -> Lattice:
        if name in self.registry:
            return Lattice([row[:] for row in self.registry[name]], name=name)
        if name == "T8":
            return self._build_t8()
        m = re.fullmatch(r"([ADEL])(\d+)", name)
        if m is None:
            raise ValueError(f"unknown lattice name {name!r}")
        family, num = m.group(1), int(m.group(2))
        if family == "A" and num >= 1:
            return Lattice(_gram_A(num), name=name)
        if family == "D":
            return Lattice(_gram_D(num), name=name)
        if family == "E":
            raise ValueError(f"unknown lattice name {name!r}")
        if family == "L":
            return Lattice(_gram_L(num), name=name)
        raise ValueError(f"unknown lattice name {name!r}")

    def parse_terms(self, expr: str) -> list[tuple[int, str, bool, int | None]]:
        terms = []
        for raw in expr.replace(" ", "").split("+"):
            if not raw:
                raise ValueError(f"empty term in lattice expression {expr!r}")
            m = _TERM_RE.fullmatch(raw)
            if m is None:
                raise ValueError(f"cannot parse lattice term {raw!r}")
            count = int(m.group(1)) if m.group(1) else 1
            if count < 1:
                raise ValueError(f"term multiplicity must be positive in {raw!r}")
            scale = int(m.group(4)) if m.group(4) else None
            if scale is not None and scale < 1:
                raise ValueError(f"rescale factor must be positive in {raw!r}")
            terms.append((count, m.group(2), m.group(3) == "v", scale))
        return terms

    def build_term(self, name: str, dual: bool, scale: int | None) -> Lattice:
        base = self.build(name)
        if dual:
            base = base.dual_rescaled(scale if scale is not None else 1)
            label = f"{name}v({scale})" if scale is not None else f"{name}v"
            base.name = label
        elif scale is not None:
            base = base.rescaled(scale)
        return base

    def parse(self, expr: str) -> Lattice:
        parts: list[Lattice] = []
        for count, name, dual, scale in self.parse_terms(expr):
            built = self.build_term(name, dual, scale)
            parts.extend(built for _ in range(count))
        out = direct_sum([Lattice([row[:] for row in p.gram]) for p in parts])
        out.name = normalize_expr(expr)
        return out


def normalize_expr(expr: str) -> str:
    pieces = []
    for raw in expr.replace(" ", "").split("+"):
        pieces.append(raw)
    return "+".join(pieces)


_default_catalog: Catalog | None = None


def default_catalog() -> Catalog:
    global _default_catalog
    if _default_catalog is None:
        _default_catalog = Catalog()
    return _default_catalog


def definite_part(expr: str, catalog: Catalog | None = None):
    """Split a model expression into its hyperbolic-plane scales and the rest.

    Returns (scales, lattice) where scales lists one entry per U-summand
    (1 for U itself, p for U(p)) and lattice is the direct sum of the
    remaining terms, or None when nothing remains.
    """
    cat = catalog or default_catalog()
    scales: list[int] = []
    rest: list[Lattice] = []
    for count, name, dual, scale in cat.parse_terms(expr):
        for _ in range(count):
            if name == "U" and not dual:
                scales.append(scale or 1)
            else:
                rest.append(cat.build_term(name, dual, scale))
    if not rest:
        return scales, None
    lat = rest[0]
    for part in rest[1:]:
        lat = lat + part
    return scales, lat


def parse_lattice(expr: str, catalog: Catalog | None = None) -> Lattice:
    return (catalog or default_catalog()).parse(expr)


def build_named(name: str, catalog: Catalog | None = None) -> Lattice:
    return (catalog or default_catalog()).build(name)

"""Named lattices and the expression grammar built on them.

Expressions are sums of terms like "2U+E6v(3)+2A2": an optional multiplicity,
a base name, an optional 'v' for the dual, and an optional (m) rescale, so
"E6v(3)" is the dual of E6 rescaled by 3.  Base names cover the hyperbolic
plane U, the root lattices A<n>, D<n> (n >= 3), E6/E7/E8, the
two-dimensional level-p lattices L<p> = [[2,1],[1,(p+1)/2]] for p = 3 mod 4,
and the sporadic definite lattices T4 and T8.

The root lattices are derived, not stored: their Grams are the Cartan
matrices of their Dynkin diagrams (Conway and Sloane, Sphere Packings,
Lattices and Groups, ch. 4), built by one rule.  T8 is the unique nontrivial
even overlattice of E7+A1(5) with determinant 5.  `_REGISTRY` holds only
the Grams that no rule produces, U and T4.  A user catalog (the --catalog
CLI flag or the REFLECTOR_CATALOG environment variable) is a JSON object
whose "lattices" object maps names to Grams, which add to these or override
U, T4, T8 and L<p>.  The names A<n>, D<n> and E<n> are refused: root-datum
spans read them, and the automorphisms of a span are searched in its Dynkin
basis.  Any other shape raises ValueError.

Every expression goes through one term expansion, `Catalog.summands`.  A
catalog builds each term (name, dual, scale) once, on first use, and hands
the same immutable `Lattice` out afterwards, T8 included; each catalog keeps
its own terms, and its own E7 + A1(p) overlattices.  It keeps each model
expression the same way, once per normalised expression: the `model_parts`
triple of the sum of all its summands (`Catalog.parse`; a single term such
as "E6(3)" is its own summand), its hyperbolic-plane scales, and the sum of
the other summands (`definite_part`), which is the sum itself when there
is no hyperbolic plane.  So a model's root data and discriminant form,
which its lattice keeps, are computed once per catalog.  The lattices that
`classify.count_classes` spans by its root data are kept the same way, one
per datum expression, for as long as the catalog lives.  So are facts read
off those lattices alone, such as the plans of the tower and transfer
records of `towers` and the genus and definite part of each table model in
`classify.verify_construction`.  A catalog keeps all of these in its one
`memo`, through `lattices.kept`, by function and arguments.  The Gram of
an expression or a root lattice of rank r is charged r^2 operations
(`discforms.charge`) before it is built, so one past the budget raises
`BudgetExceeded` and is not kept.
"""

from __future__ import annotations

import re

from . import discforms
from .lattices import Lattice, direct_sum, kept

_TERM_RE = re.compile(r"^(\d*)([A-Z][A-Za-z]*?\d*)(v?)(?:\((\d+)\))?$")

_REGISTRY = {"U": ((0, 1), (1, 0)), "T4": ((2, 1, 1, 1), (1, 2, 0, 1), (1, 0, 4, 2), (1, 1, 2, 4))}


def _dynkin_gram(n: int, branch: int | None) -> list[list[int]]:
    """Cartan matrix of a simply laced Dynkin diagram on nodes 0..n-1.

    Without a branch the diagram is a chain (A_n); with one, nodes 0..n-2
    form a chain and node n-1 is attached to node `branch`: n - 3 for D_n,
    2 for E_6, E_7 and E_8.
    """
    chain = n if branch is None else n - 1
    g = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    edges = [(i, i + 1) for i in range(chain - 1)]
    if branch is not None:
        edges.append((branch, n - 1))
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


@kept
def e7_a1_overlattice(catalog: "Catalog", p: int) -> Lattice:
    """The even overlattice of E7 + A1(p) with determinant p; exists for p = 1 mod 4.

    Kept on the catalog per p.  Raises ArithmeticError unless exactly one
    root-free glue group gives an overlattice of level p, and unless that
    one has determinant p.
    """
    seed = catalog.build("E7") + catalog.build("A1").rescaled(p)
    glue = discforms.even_overlattices(seed, p, p)
    if len(glue) != 1:
        raise ArithmeticError(f"expected one overlattice, found {len(glue)}")
    over = discforms.glue_overlattice(seed, discforms.discriminant_form(seed), glue[0])
    if abs(over.det()) != p or over.level() != p:
        raise ArithmeticError(f"E7+A1({p}) overlattice is not of determinant and level {p}")
    return over


class Catalog:
    """Resolver from names and expressions to lattices."""

    def __init__(self, extra: dict | None = None):
        self.registry = dict(_REGISTRY)
        for name, gram in (extra or {}).items():
            if re.fullmatch(r"[ADE]\d+", name):
                raise ValueError(f"catalog entry {name!r} overrides a root lattice built by rule")
            if not (isinstance(gram, list) and all(
                    isinstance(row, list) and all(type(x) is int for x in row) for row in gram)):
                raise ValueError(f"catalog entry {name!r} is not a list of lists of integers")
        self.registry.update(extra or {})
        self.memo: dict = {}  # what `kept` functions have built on this catalog

    @classmethod
    def from_file(cls, path: str) -> "Catalog":
        import json  # read only here, so `import reflector` does not load it

        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"catalog {path} is not a JSON object")
        unknown = sorted(set(data) - {"lattices"})
        if unknown:
            raise ValueError(f"catalog {path} has keys other than \"lattices\": {unknown}")
        extra = data.get("lattices", {})
        if not isinstance(extra, dict):
            raise ValueError("catalog lattices must map names to Gram matrices")
        return cls(extra=extra)

    def build(self, name: str) -> Lattice:
        return self._term(name, False, None)

    @kept
    def _term(self, name: str, dual: bool, scale: int | None) -> Lattice:
        """The lattice of one term, built on first use and kept."""
        if dual:
            return self.build(name).dual_rescaled(scale or 1)
        if scale is not None:
            return self.build(name).rescaled(scale)
        return self._build_base(name)

    def _build_base(self, name: str) -> Lattice:
        if name in self.registry:
            return Lattice(self.registry[name], name=name)
        if name == "T8":
            return Lattice(e7_a1_overlattice(self, 5).gram, name="T8")
        m = re.fullmatch(r"([ADEL])(\d+)", name)
        if m is None:
            raise ValueError(f"unknown lattice name {name!r}")
        family, num = m.group(1), int(m.group(2))
        if family in ("A", "D"):
            discforms.charge(num * num, f"Gram check of {name!r}")
        if family == "A" and num >= 1:
            return Lattice(_dynkin_gram(num, None), name=name)
        if family == "D":
            if num < 3:
                raise ValueError("D<n> needs n >= 3")
            return Lattice(_dynkin_gram(num, num - 3), name=name)
        if family == "E" and name in ("E6", "E7", "E8"):
            return Lattice(_dynkin_gram(num, 2), name=name)
        if family == "L":
            if num % 4 != 3:
                raise ValueError(f"L{num} requires p = 3 mod 4 so the Gram matrix is even")
            return Lattice([[2, 1], [1, (num + 1) // 2]], name=name)
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

    def summands(self, expr: str) -> list[tuple[str, bool, int | None, Lattice]]:
        """(name, dual, scale, lattice) for each summand of expr, in order.

        A term with multiplicity c appears c times, as the one lattice the
        catalog keeps for it.  The total rank r is charged r^2 operations
        before the list is made.
        """
        terms = [(count, (name, dual, scale, self._term(name, dual, scale)))
                 for count, name, dual, scale in self.parse_terms(expr)]
        rank = sum(count * summand[3].rank for count, summand in terms)
        discforms.charge(rank * rank, f"Gram check of {expr!r}")
        return [summand for count, summand in terms for _ in range(count)]

    def model_parts(self, expr: str) -> tuple[Lattice, list[int], Lattice | None]:
        """(parse(expr), *definite_part(expr)), assembled once per normalised expression.

        Every call hands out the same triple, the scales list included.
        """
        return self._model(normalize_expr(expr))

    @kept
    def _model(self, expr: str) -> tuple[Lattice, list[int], Lattice | None]:
        summands = self.summands(expr)
        scales = [scale or 1 for name, dual, scale, _ in summands if name == "U" and not dual]
        rest = [lat for name, dual, _, lat in summands if name != "U" or dual]
        whole = direct_sum([lat for _, _, _, lat in summands], name=expr)
        if len(rest) == len(summands):  # no hyperbolic plane: the sum is its own definite part
            return whole, scales, whole
        return whole, scales, direct_sum(rest) if rest else None

    def parse(self, expr: str) -> Lattice:
        """The direct sum of the summands of expr, named expr; a lone summand of that name as is."""
        return self.model_parts(expr)[0]


def normalize_expr(expr: str) -> str:
    """The expression with its spaces removed; terms are kept as written."""
    return expr.replace(" ", "")


_default_catalog: Catalog | None = None


def default_catalog() -> Catalog:
    global _default_catalog
    if _default_catalog is None:
        _default_catalog = Catalog()
    return _default_catalog


def second_plane(scales: list[int]) -> int | None:
    """m when a model's hyperbolic planes are exactly U + U(m), so 1 for 2U; else None."""
    planes = sorted(scales)
    return planes[1] if len(planes) == 2 and planes[0] == 1 else None


def definite_part(expr: str, catalog: Catalog | None = None):
    """Split a model expression into its hyperbolic-plane scales and the rest.

    Returns (scales, lattice) where scales lists one entry per U-summand
    (1 for U itself, p for U(p)) and lattice is the direct sum of the
    remaining terms, or None when nothing remains.
    """
    return (catalog or default_catalog()).model_parts(expr)[1:]


def model_parts(expr: str, catalog: Catalog | None = None):
    """(parse(expr), *definite_part(expr)), kept by the catalog; see `Catalog.model_parts`."""
    return (catalog or default_catalog()).model_parts(expr)


def parse_lattice(expr: str, catalog: Catalog | None = None) -> Lattice:
    return (catalog or default_catalog()).parse(expr)

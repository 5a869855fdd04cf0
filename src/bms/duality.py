"""The contravariant equivalence between multispaces and Specker groups.

One direction sends a space to its group of integer vectors; the other sends
a group to its maximal-ideal space, with multiplicities read off as unit
residues.  Both round trips are witnessed by the isomorphisms themselves,
the unit eta and the counit epsilon, and the hom-set bijection can be
verified exhaustively on finite objects.

An ``LHom`` is a view of its dual point map: ``dual_hom`` wraps a point
map without checking it again, and ``psi.point_map`` is the map back.
``spectrum_map`` carries the same rows onto the maximal-ideal spaces, and
the counit at a group is the dual of the unit's inverse at its base.
"""

from __future__ import annotations

import collections
import functools

from .mspace import (
    BmsMorphism,
    MultiSpace,
    compose,
    enumerate_homs,
    homs_from_factors,
    identity,
    identity_rows,
    new_space,
)
from .sgroup import (
    LHom,
    SpeckerGroup,
    compose_lhom,
    decode_matrix_row,
    identity_lhom,
    maxspec,
    residue,
)

__all__ = [
    "function_group",
    "dual_hom",
    "spectrum_space",
    "spectrum_map",
    "unit_iso",
    "counit_iso",
    "triangle_identities_space",
    "triangle_identities_group",
    "enumerate_lhoms",
    "hom_bijection_report",
]

IDEAL_PREFIX = "m_"


def function_group(space: MultiSpace) -> SpeckerGroup:
    """The group of integer vectors over the space, unit = multiplicity."""
    return SpeckerGroup(space)


def dual_hom(gamma: BmsMorphism) -> LHom:
    """The unital l-homomorphism dual to a point map (contravariant).

    For gamma from W to V this maps functions on V to functions on W by
    composing with gamma and scaling by gamma's zeta: the homomorphism whose
    dual point map is gamma itself.
    """
    return LHom(gamma)


@functools.lru_cache(maxsize=None)
def spectrum_space(group: SpeckerGroup) -> MultiSpace:
    """The maximal-ideal space, points in base order, unit residues as mults."""
    u = group.unit()
    return new_space(
        [IDEAL_PREFIX + l for m in maxspec(group) for l in m.zeroset],
        [residue(m, u) for m in maxspec(group)],
    )


def spectrum_map(psi: LHom) -> BmsMorphism:
    """The point map on maximal-ideal spaces induced by preimage.

    Each ideal of the codomain group pulls back to the ideal at its row's
    source point: psi's rows, on the spectra.
    """
    return BmsMorphism(spectrum_space(psi.cod), spectrum_space(psi.dom), psi.rows)


@functools.lru_cache(maxsize=None)
def unit_iso(space: MultiSpace) -> BmsMorphism:
    """The unit eta, sending each point to its vanishing ideal."""
    return BmsMorphism(space, spectrum_space(function_group(space)), identity_rows(len(space)))


@functools.lru_cache(maxsize=None)
def counit_iso(group: SpeckerGroup) -> LHom:
    """The counit epsilon, sending each element to its residue function.

    It goes from group to function_group(spectrum_space(group)), as the dual
    of the inverse of the unit at the base, spectrum_space(group) -> base.
    """
    base = group.base
    return LHom(BmsMorphism(spectrum_space(group), base, identity_rows(len(base))))


def triangle_identities_space(space: MultiSpace) -> bool:
    """Check both composites of the first triangle identity at a space."""
    grp = function_group(space)
    eps = counit_iso(grp)              # grp -> SB(grp)
    s_eta = dual_hom(unit_iso(space))  # SB(grp) -> grp
    return (
        compose_lhom(eps, s_eta) == identity_lhom(grp)
        and compose_lhom(s_eta, eps) == identity_lhom(s_eta.dom)
    )


def triangle_identities_group(group: SpeckerGroup) -> bool:
    """Check both composites of the second triangle identity at a group."""
    spec = spectrum_space(group)
    eta = unit_iso(spec)                     # spec -> BS(spec)
    b_eps = spectrum_map(counit_iso(group))  # BS(spec) -> spec
    return (
        compose(eta, b_eps) == identity(spec)
        and compose(b_eps, eta) == identity(eta.cod)
    )


def enumerate_lhoms(dom: SpeckerGroup, cod: SpeckerGroup) -> list[LHom]:
    """All valid homomorphism matrices dom -> cod, by brute force over rows.

    For each codomain point only entries k with k * unit_dom(v) equal to the
    point's unit are tried, which is sound and complete for the row-shape
    invariants.  Each dense candidate row is decoded once, by the decoder of
    ``validate_lhom``, and ``mspace.homs_from_factors`` checks each decoded
    row once against the units and builds every matrix of the row product
    from the checked rows.  So the result is ``validate_lhom`` of each dense
    matrix of the product, in product order, without decoding or checking a
    row again per matrix.
    """
    ncols = len(dom.base)
    factors = []
    for r, uw in enumerate(cod.base.mults):
        factor = []
        for c, uv in enumerate(dom.base.mults):
            if uw % uv == 0:
                row = [0] * ncols
                row[c] = uw // uv
                factor.append(decode_matrix_row(r, row, ncols))
        factors.append(factor)
    return [LHom(m) for m in homs_from_factors(cod.base, dom.base, factors)]


def hom_bijection_report(x: MultiSpace, y: MultiSpace) -> dict:
    """Compare point maps x -> y against matrices group(y) -> group(x).

    Maps every enumerated point map through the duality and checks that this
    hits each brute-force-enumerated matrix exactly once.  Both lists come in
    the same product order, so when they are equal one set serves both: a
    repeat in one list is a repeat in the other.  The set differences are
    computed only when the two sets differ.
    """
    homs = enumerate_homs(x, y)
    images = [dual_hom(g) for g in homs]
    lhoms = enumerate_lhoms(function_group(y), function_group(x))
    if images == lhoms:
        image_set = lhom_set = set(images)
    else:
        image_set, lhom_set = set(images), set(lhoms)
    failures = []
    if len(image_set) != len(images):
        failures.append("duality is not injective on point maps")
    if len(lhom_set) != len(lhoms):
        repeated = sum(1 for n in collections.Counter(lhoms).values() if n > 1)
        failures.append(f"{repeated} matrices are enumerated more than once")
    if image_set is not lhom_set and image_set != lhom_set:
        missing = lhom_set - image_set
        if missing:
            failures.append(f"{len(missing)} matrices are not images of point maps")
        extra = image_set - lhom_set
        if extra:
            failures.append(f"{len(extra)} images fall outside the enumerated matrices")
    return {
        "homs_bms": len(homs),
        "homs_uslg": len(lhoms),
        "bijection": not failures and len(homs) == len(lhoms),
        "failures": failures,
    }

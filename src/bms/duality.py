"""The contravariant equivalence between multispaces and Specker groups.

One direction sends a space to its group of integer vectors; the other sends
a group to its maximal-ideal space, with multiplicities read off as unit
residues.  Both round trips are witnessed by explicit isomorphisms, and the
hom-set bijection can be verified exhaustively on finite objects.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Union

from .errors import SchemaError
from .mspace import (
    BmsMorphism,
    MultiSpace,
    compose,
    enumerate_homs,
    identity,
    is_isomorphism,
    new_space,
)
from .sgroup import (
    LHom,
    SpeckerGroup,
    compose_lhom,
    identity_lhom,
    is_isomorphism_lhom,
    maxspec,
    residue,
    validate_lhom,
)

__all__ = [
    "NaturalIsoWitness",
    "function_group",
    "dual_hom",
    "spectrum_space",
    "spectrum_map",
    "dual_point_map",
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
    composing with gamma and scaling by gamma's zeta: row w is the pair
    (gamma(w), zeta(w)).
    """
    rows = tuple(zip(map(gamma.cod.index, gamma.targets), gamma.zetas))
    return LHom(function_group(gamma.cod), function_group(gamma.dom), rows)


@functools.lru_cache(maxsize=None)
def spectrum_space(group: SpeckerGroup) -> MultiSpace:
    """The maximal-ideal space, points in base order, unit residues as mults."""
    u = group.unit()
    return new_space(
        [IDEAL_PREFIX + m.point for m in maxspec(group)],
        [residue(m, u) for m in maxspec(group)],
    )


def _row_point_map(psi: LHom, dom_space: MultiSpace, cod_space: MultiSpace) -> BmsMorphism:
    """Point r of ``dom_space`` goes to point c of ``cod_space`` for row (c, k)
    of psi; the spaces list their points in the orders of psi.cod and psi.dom."""
    labels = cod_space.labels
    return BmsMorphism(dom_space, cod_space, tuple([labels[c] for c, _ in psi.rows]))


def spectrum_map(psi: LHom) -> BmsMorphism:
    """The point map on maximal-ideal spaces induced by preimage.

    Each ideal of the codomain group pulls back to the ideal at its row's
    source point: ``dual_point_map`` relabeled onto the spectra.
    """
    return _row_point_map(psi, spectrum_space(psi.cod), spectrum_space(psi.dom))


def dual_point_map(psi: LHom) -> BmsMorphism:
    """The point map dual to psi, on the original base spaces."""
    return _row_point_map(psi, psi.cod.base, psi.dom.base)


@dataclass(frozen=True)
class NaturalIsoWitness:
    """A pair of mutually inverse morphisms witnessing a natural isomorphism."""

    direction: str  # "unit" or "counit"
    forward: Union[BmsMorphism, LHom]
    backward: Union[BmsMorphism, LHom]

    def __post_init__(self) -> None:
        f, b = self.forward, self.backward
        if self.direction == "unit":
            ok = (
                compose(f, b) == identity(f.dom)
                and compose(b, f) == identity(b.dom)
                and is_isomorphism(f)
            )
        elif self.direction == "counit":
            ok = (
                compose_lhom(f, b) == identity_lhom(f.dom)
                and compose_lhom(b, f) == identity_lhom(b.dom)
                and is_isomorphism_lhom(f)
            )
        else:
            raise SchemaError(f"unknown witness direction {self.direction!r}")
        if not ok:
            raise SchemaError("forward and backward morphisms are not mutually inverse")


@functools.lru_cache(maxsize=None)
def unit_iso(space: MultiSpace) -> NaturalIsoWitness:
    """The isomorphism sending each point to its vanishing ideal."""
    spec = spectrum_space(function_group(space))
    fwd = BmsMorphism(space, spec, spec.labels)
    bwd = BmsMorphism(spec, space, space.labels)
    return NaturalIsoWitness("unit", fwd, bwd)


@functools.lru_cache(maxsize=None)
def counit_iso(group: SpeckerGroup) -> NaturalIsoWitness:
    """The isomorphism sending each element to its residue function.

    Under the canonical point orders its rows are those of the identity:
    each point to itself with multiplier 1.
    """
    target = function_group(spectrum_space(group))
    eye = identity_lhom(group).rows
    return NaturalIsoWitness("counit", LHom(group, target, eye), LHom(target, group, eye))


def triangle_identities_space(space: MultiSpace) -> bool:
    """Check both composites of the first triangle identity at a space."""
    grp = function_group(space)
    eps = counit_iso(grp).forward                 # grp -> SB(grp)
    s_eta = dual_hom(unit_iso(space).forward)     # SB(grp) -> grp
    return (
        compose_lhom(eps, s_eta) == identity_lhom(grp)
        and compose_lhom(s_eta, eps) == identity_lhom(s_eta.dom)
    )


def triangle_identities_group(group: SpeckerGroup) -> bool:
    """Check both composites of the second triangle identity at a group."""
    spec = spectrum_space(group)
    eta = unit_iso(spec).forward                  # spec -> BS(spec)
    b_eps = spectrum_map(counit_iso(group).forward)  # BS(spec) -> spec
    return (
        compose(eta, b_eps) == identity(spec)
        and compose(b_eps, eta) == identity(eta.cod)
    )


def enumerate_lhoms(dom: SpeckerGroup, cod: SpeckerGroup) -> list[LHom]:
    """All valid homomorphism matrices dom -> cod, by brute force over rows.

    For each codomain point only entries k with k * unit_dom(v) equal to the
    point's unit are tried, which is sound and complete for the row-shape
    invariants; ``validate_lhom`` decodes each matrix.  Deterministic order.
    """
    row_choices = []
    ncols = len(dom.base)
    for uw in cod.base.mults:
        choices = []
        for c, uv in enumerate(dom.base.mults):
            if uw % uv == 0:
                row = [0] * ncols
                row[c] = uw // uv
                choices.append(tuple(row))
        row_choices.append(choices)
    return [validate_lhom(rows, dom, cod) for rows in itertools.product(*row_choices)]


def hom_bijection_report(x: MultiSpace, y: MultiSpace) -> dict:
    """Compare point maps x -> y against matrices group(y) -> group(x).

    Maps every enumerated point map through the duality and checks that this
    hits each brute-force-enumerated matrix exactly once.
    """
    homs = enumerate_homs(x, y)
    images = [dual_hom(g) for g in homs]
    lhoms = enumerate_lhoms(function_group(y), function_group(x))
    failures = []
    if len(set(images)) != len(images):
        failures.append("duality is not injective on point maps")
    missing = [h for h in lhoms if h not in images]
    if missing:
        failures.append(f"{len(missing)} matrices are not images of point maps")
    extra = [h for h in images if h not in lhoms]
    if extra:
        failures.append(f"{len(extra)} images fall outside the enumerated matrices")
    return {
        "homs_bms": len(homs),
        "homs_uslg": len(lhoms),
        "bijection": not failures and len(homs) == len(lhoms),
        "failures": failures,
    }

import itertools

import pytest

from bms.duality import dual_hom, function_group
from bms.errors import MissingColimitError, SchemaError
from bms.ints import checked_lcm
from bms.laws import all_spaces, check_duality_exchange, check_limit_law
from bms.limits import (
    Cone,
    Diagram,
    coequalizer,
    coproduct,
    equalizer,
    group_coproduct,
    group_product,
    initial,
    limit,
    product,
    pullback,
    pushout,
    terminal,
    verify_couniversal,
    verify_universal,
)
from bms.mspace import (
    compose,
    enumerate_homs,
    is_isomorphism,
    new_morphism,
    new_space,
)


def test_product_of_singletons_is_lcm():
    cone = product(new_space(["a"], [2]), new_space(["b"], [3]))
    assert cone.apex.labels == ("(a,b)",)
    assert cone.apex.mults == (6,)


def test_empty_diagram_gives_terminal():
    cone = terminal()
    assert cone.apex.mults == (1,) and len(cone.apex) == 1
    assert cone.legs == ()


def test_square_product_multiplicity_table():
    # LCM table computed by hand: (1,1)->1 (1,2)->2 (2,1)->2 (2,2)->2
    ab = new_space(["a", "b"], [1, 2])
    cone = product(ab, ab)
    assert cone.apex.labels == ("(a,a)", "(a,b)", "(b,a)", "(b,b)")
    assert cone.apex.mults == (1, 2, 2, 2)
    for label in cone.apex.labels:
        comps = [leg(label) for leg in cone.legs]
        assert cone.apex.mult(label) == checked_lcm(ab.mult(c) for c in comps)


def test_equalizer_selects_agreement_subspace():
    # two-point domain, two-point codomain, maps agree on x1 only
    dom = new_space(["x1", "x2"], [2, 2])
    cod = new_space(["y1", "y2"], [2, 2])
    f = new_morphism(dom, cod, {"x1": "y1", "x2": "y1"})
    g = new_morphism(dom, cod, {"x1": "y1", "x2": "y2"})
    cone = equalizer(f, g)
    assert len(cone.apex) == 1
    assert cone.apex.mults == (2,)
    assert cone.legs[0](cone.apex.labels[0]) == "x1"


def test_equalizer_of_equal_maps_is_whole_domain():
    dom = new_space(["x1", "x2"], [2, 4])
    cod = new_space(["y"], [2])
    f = new_morphism(dom, cod, {"x1": "y", "x2": "y"})
    cone = equalizer(f, f)
    assert len(cone.apex) == len(dom)
    assert sorted(cone.apex.mults) == sorted(dom.mults)


def test_equalizer_requires_parallel_pair():
    dom = new_space(["x"], [2])
    cod = new_space(["y"], [2])
    other = new_space(["z"], [2])
    f = new_morphism(dom, cod, {"x": "y"})
    g = new_morphism(dom, other, {"x": "z"})
    with pytest.raises(SchemaError):
        equalizer(f, g)


def test_pullback_over_terminal_is_product():
    x = new_space(["a", "b"], [1, 2])
    y = new_space(["c"], [3])
    pt = new_space(["t"], [1])
    f = new_morphism(x, pt, {"a": "t", "b": "t"})
    g = new_morphism(y, pt, {"c": "t"})
    pb = pullback(f, g)
    pr = product(x, y)
    assert sorted(pb.apex.mults) == sorted(pr.apex.mults)
    assert len(pb.apex) == len(pr.apex)


def test_limit_agrees_with_specializations():
    x = new_space(["a", "b"], [1, 2])
    y = new_space(["c"], [3])
    assert limit(Diagram((x, y))) == product(x, y)
    pt = new_space(["t"], [1])
    f = new_morphism(x, pt, {"a": "t", "b": "t"})
    g = new_morphism(y, pt, {"c": "t"})
    assert limit(Diagram((x, y, pt), ((0, 2, f), (1, 2, g)))) == pullback(f, g)


def test_coproduct_examples():
    a1 = new_space(["a"], [1])
    a2 = new_space(["a"], [2])
    cc = coproduct(a1, a2)
    assert cc.apex.labels == ("L:a", "R:a")
    assert cc.apex.mults == (1, 2)
    for inj in cc.injections:
        assert inj.zetas == (1,) * len(inj.dom)          # multiplicity preserving
        assert len(set(inj.targets)) == len(inj.targets)  # mono
    x = new_space(["a", "b"], [1, 2])
    cc2 = coproduct(x, new_space([], []))
    assert cc2.apex.mults == x.mults
    assert initial() == new_space([], [])


def _naive_universal(candidate, diagram, test_apexes):
    """Oracle: scan real mediating morphisms by full enumeration."""
    violations = []
    for t in test_apexes:
        legsets = [enumerate_homs(t, obj) for obj in diagram.objects]
        cones = [
            legs
            for legs in itertools.product(*legsets)
            if all(compose(legs[s], m) == legs[j] for s, j, m in diagram.arrows)
        ]
        for legs in cones:
            mediators = [
                med
                for med in enumerate_homs(t, candidate.apex)
                if all(
                    compose(med, cl) == leg for cl, leg in zip(candidate.legs, legs)
                )
            ]
            if len(mediators) != 1:
                violations.append((t, legs, len(mediators)))
    return violations


def test_verify_universal_matches_naive_oracle():
    x = new_space(["a", "b"], [1, 2])
    y = new_space(["c"], [3])
    diagram = Diagram((x, y))
    cone = product(x, y)
    apexes = all_spaces(2, 3)
    fast = verify_universal(cone, diagram, apexes)
    slow = _naive_universal(cone, diagram, apexes)
    assert fast["violations"] == [] and slow == []

    # doubled multiplicity at the single point of a product of singletons:
    # legs stay valid but the cone from a multiplicity-6 apex has no mediator
    sa, sb = new_space(["a"], [2]), new_space(["b"], [3])
    doubled_apex = new_space(["(a,b)"], [12])
    legs = (
        new_morphism(doubled_apex, sa, {"(a,b)": "a"}),
        new_morphism(doubled_apex, sb, {"(a,b)": "b"}),
    )
    bad = Cone(doubled_apex, legs)
    diagram2 = Diagram((sa, sb))
    apexes6 = apexes + [new_space(["t"], [6])]
    fast2 = verify_universal(bad, diagram2, apexes6)
    slow2 = _naive_universal(bad, diagram2, apexes6)
    assert fast2["violations"] and slow2
    assert any("no mediating" in v for v in fast2["violations"])


def test_verify_universal_empty_diagram():
    apexes = all_spaces(2, 2)
    report = verify_universal(terminal(), Diagram(()), apexes)
    assert report["violations"] == []
    assert report["cones"] == len(apexes)


def test_verify_couniversal_coproduct():
    x = new_space(["a"], [2])
    y = new_space(["b", "c"], [1, 2])
    report = verify_couniversal(coproduct(x, y), all_spaces(2, 4))
    assert report["violations"] == []


def test_limit_law_sweep_small():
    assert check_limit_law(all_spaces(2, 3), all_spaces(2, 3)) == []


def test_group_product_and_coproduct():
    z1 = function_group(new_space(["z"], [1]))
    z2 = function_group(new_space(["z"], [2]))
    prod = group_product(z1, z2)
    assert prod.group.base.mults == (1, 2)
    for proj in prod.projections:
        assert proj.dom == prod.group

    z3 = function_group(new_space(["z"], [3]))
    cop = group_coproduct(z2, z3)
    assert cop.group.base.mults == (6,)
    for inj in cop.injections:
        assert inj.cod == cop.group

    trivial = function_group(new_space([], []))
    assert group_product(z2, trivial).group.base.mults == (2,)


def test_duality_exchange_small():
    assert check_duality_exchange(all_spaces(2, 3)) == []


def test_group_injections_are_dual_projections():
    x = new_space(["a", "b"], [1, 2])
    y = new_space(["c"], [3])
    cone = product(x, y)
    cop = group_coproduct(function_group(x), function_group(y))
    for leg, inj in zip(cone.legs, cop.injections):
        assert dual_hom(leg) == inj


def test_pushout_and_coequalizer_are_refused():
    x = new_space(["a"], [2])
    f = new_morphism(x, x, {"a": "a"})
    with pytest.raises(MissingColimitError):
        pushout(f, f)
    with pytest.raises(MissingColimitError):
        coequalizer(f, f)

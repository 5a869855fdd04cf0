import itertools
import math
import random

import pytest

from bms.duality import dual_hom, function_group
from bms import limits
from bms.errors import OverflowLimitError, SchemaError, SizeLimitError
from bms.ints import INT_LIMIT, checked_lcm
from bms.laws import all_spaces, check_duality_exchange, check_limit_law
from bms.limits import (
    Cone,
    Diagram,
    coproduct,
    equalizer,
    group_coproduct,
    group_product,
    limit,
    product,
    pullback,
    verify_couniversal,
    verify_universal,
)
from bms.mspace import (
    BmsMorphism,
    MultiSpace,
    compose,
    compose_rows,
    enumerate_homs,
    hom_factors,
    is_isomorphism,
    new_morphism,
    new_space,
)


def test_product_of_singletons_is_lcm():
    cone = product(new_space(["a"], [2]), new_space(["b"], [3]))
    assert cone.apex.labels == ("(a,b)",)
    assert cone.apex.mults == (6,)


def test_empty_diagram_gives_terminal():
    cone = limit(Diagram(()))
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


def _maps_agreeing_on_the_even_points(n):
    """f: x_i -> y_i and g: x_i -> y_(i - i % 2) between two n-point spaces."""
    dom = new_space([f"x{i}" for i in range(n)], [1] * n)
    cod = new_space([f"y{i}" for i in range(n)], [1] * n)
    f = new_morphism(dom, cod, {f"x{i}": f"y{i}" for i in range(n)})
    g = new_morphism(dom, cod, {f"x{i}": f"y{i - i % 2}" for i in range(n)})
    return f, g


def test_equalizer_is_bounded_by_the_tuples_it_extends():
    # The product has 400 x 400 = 160,000 point tuples, above HOM_LIMIT, but
    # f fixes the codomain point of each, so the scan extends only 400.
    f, g = _maps_agreeing_on_the_even_points(400)
    cone = equalizer(f, g)
    assert cone.apex.labels == tuple(f"(x{i},y{i})" for i in range(0, 400, 2))
    assert cone.legs[0].targets == tuple(f"x{i}" for i in range(0, 400, 2))


def test_the_second_arrow_of_an_equalizer_still_filters():
    # g differs from f at every point, so no point is equalized.  f chooses
    # the codomain point (forward) or offers the preimages (reversed), and g,
    # with the same ends, must still filter those tuples.
    n = 4
    dom = new_space([f"x{i}" for i in range(n)], [2] * n)
    cod = new_space([f"y{i}" for i in range(n)], [1] * n)
    f = new_morphism(dom, cod, {f"x{i}": f"y{i}" for i in range(n)})
    g = new_morphism(dom, cod, {f"x{i}": f"y{(i + 1) % n}" for i in range(n)})
    cone = equalizer(f, g)
    assert len(cone.apex) == 0
    assert [leg.rows for leg in cone.legs] == [(), ()]
    assert len(limit(Diagram((cod, dom), ((1, 0, f), (1, 0, g)))).apex) == 0
    assert len(equalizer(f, f).apex) == n


def test_limit_refusal_counts_the_objects_no_arrow_fixes():
    obj = new_space([f"p{i}" for i in range(12)], [1] * 12)
    with pytest.raises(SizeLimitError, match=r"^248832 point tuples exceed the limit of 100000$"):
        limit(Diagram((obj,) * 5))
    # Over one point: the 317 x 317 = 100,489 pairs of the two sides.
    x = new_space([f"x{i}" for i in range(317)], [1] * 317)
    f = new_morphism(x, new_space(["t"], [1]), {l: "t" for l in x.labels})
    with pytest.raises(SizeLimitError, match=r"^100489 point tuples exceed the limit of 100000$"):
        pullback(f, f)


def test_an_arrow_into_an_earlier_object_offers_only_its_preimages():
    # f is a bijection of 400 points: the reversed diagram extends each of
    # the 400 points of y by its one preimage, not by all 400 points of x.
    f, _ = _maps_agreeing_on_the_even_points(400)
    x, y = f.dom, f.cod
    backward = limit(Diagram((y, x), ((1, 0, f),)))
    forward = limit(Diagram((x, y), ((0, 1, f),)))
    assert len(backward.apex) == 400
    assert backward.apex.labels == tuple(
        "(" + ",".join(l[1:-1].split(",")[::-1]) + ")" for l in forward.apex.labels
    )
    assert backward.apex.mults == forward.apex.mults
    assert [l.rows for l in backward.legs] == [l.rows for l in forward.legs[::-1]]
    # The pullback over one point with the point first: each side offers its
    # largest preimage, all 317 points, so 317 x 317 tuples are refused.
    side = new_space([f"x{i}" for i in range(317)], [1] * 317)
    pt = new_space(["t"], [1])
    g = new_morphism(side, pt, {l: "t" for l in side.labels})
    with pytest.raises(SizeLimitError, match=r"^100489 point tuples exceed the limit of 100000$"):
        limit(Diagram((pt, side, side), ((1, 0, g), (2, 0, g))))


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


def _assert_same_space(built, checked):
    """A space built without the checks behaves as its copy from the checked ``new_space``."""
    assert built == checked and hash(built) == hash(checked)
    assert all(type(m) is int for m in built.mults)
    assert [built.index(l) for l in checked.labels] == list(range(len(checked)))


def test_product_and_coproduct_apexes_match_checked_spaces():
    for x, y in itertools.product(all_spaces(3, 4), repeat=2):
        for apex in (product(x, y).apex, coproduct(x, y).apex):
            _assert_same_space(apex, new_space(list(apex.labels), list(apex.mults)))


def test_colliding_tuple_labels_are_refused():
    # ("a,b", "c") and ("a", "b,c") both give the label "(a,b,c)"
    x = new_space(["a,b", "a"], [1, 1])
    y = new_space(["c", "b,c"], [1, 1])
    with pytest.raises(SchemaError, match=r"^duplicate point label '\(a,b,c\)'$"):
        product(x, y)


def test_lcm_above_the_bound_is_refused():
    assert product(new_space(["a"], [INT_LIMIT]), new_space(["b"], [7])).apex.mults == (INT_LIMIT,)
    with pytest.raises(OverflowLimitError):
        product(new_space(["a"], [INT_LIMIT]), new_space(["b"], [2]))
    with pytest.raises(OverflowLimitError, match=r"^lcm at point \(c,b\) exceeds the 64-bit bound$"):
        product(new_space(["a", "c"], [1, 2**62]), new_space(["b"], [3**39]))


def _naive_limit(diagram):
    """Oracle: scan every tuple of the product of point indices and keep the
    ones on which every arrow commutes; the legs go through the row check."""
    objs = diagram.objects
    components = [
        c
        for c in itertools.product(*(range(len(o)) for o in objs))
        if all(m.rows[c[s]][0] == c[t] for s, t, m in diagram.arrows)
    ]
    apex = new_space(
        ["(" + ",".join(o.labels[i] for o, i in zip(objs, c)) + ")" for c in components],
        [checked_lcm(o.mults[i] for o, i in zip(objs, c)) for c in components],
    )
    legs = tuple(
        BmsMorphism(apex, o, tuple((c[k], m // o.mults[c[k]]) for c, m in zip(components, apex.mults)))
        for k, o in enumerate(objs)
    )
    return Cone(apex, legs)


def _assert_limit_is_naive(diagram):
    fast, slow = limit(diagram), _naive_limit(diagram)
    assert fast.apex == slow.apex and fast.apex.labels == slow.apex.labels
    _assert_same_space(fast.apex, slow.apex)
    assert [l.rows for l in fast.legs] == [l.rows for l in slow.legs]
    assert fast == slow
    return fast


def _tuple_by_tuple_limit(diagram):
    """Oracle: ``limit`` as it was before the column build, each label, lcm
    and leg row read along one tuple."""
    item = tuple.__getitem__
    objs = diagram.objects
    components = limits._compatible_tuples(diagram)
    labels = [o.labels for o in objs]
    points = tuple(["(" + ",".join(map(item, labels, c)) + ")" for c in components])
    mults_of = [o.mults for o in objs]
    mults = tuple([math.lcm(*map(item, mults_of, c)) for c in components])
    if max(mults, default=1) > INT_LIMIT:
        over = next(p for p, m in zip(points, mults) if m > INT_LIMIT)
        raise OverflowLimitError(f"lcm at point {over} exceeds the 64-bit bound")
    apex = MultiSpace(points, mults)
    legs = tuple(
        BmsMorphism._trusted(
            apex, o, tuple([(c[k], m // o.mults[c[k]]) for c, m in zip(components, mults)])
        )
        for k, o in enumerate(objs)
    )
    return Cone(apex, legs)


def _outcome(build, diagram):
    """The cone's apex labels, multiplicities and leg rows, or the type and
    message of the exception it raises."""
    try:
        cone = build(diagram)
    except Exception as e:  # compared, not swallowed
        return type(e), str(e)
    return cone.apex.labels, cone.apex.mults, [(l.dom, l.cod, l.rows) for l in cone.legs]


def _assert_limit_is_tuple_by_tuple(diagram):
    fast, slow = _outcome(limit, diagram), _outcome(_tuple_by_tuple_limit, diagram)
    assert fast == slow, diagram
    return fast


def test_limit_matches_the_tuple_by_tuple_oracle():
    rng = random.Random(20_251)
    for _ in range(1000):
        _assert_limit_is_tuple_by_tuple(_random_diagram(rng))
    x, y = new_space(["a", "b"], [1, 2]), new_space(["c"], [3])
    empty = new_space([], [])
    assert _assert_limit_is_tuple_by_tuple(Diagram(())) == (("()",), (1,), [])
    assert _assert_limit_is_tuple_by_tuple(Diagram((x, empty, y))) == (
        (), (), [(empty, o, ()) for o in (x, empty, y)]
    )
    pt = new_space(["t"], [1])
    f = new_morphism(x, pt, {"a": "t", "b": "t"})
    assert _assert_limit_is_tuple_by_tuple(Diagram((empty, x, pt), ((1, 2, f),)))[0] == ()
    assert _assert_limit_is_tuple_by_tuple(Diagram((x,)))[1] == x.mults
    commas = Diagram((new_space(["a,b", "a"], [1, 1]), new_space(["c", "b,c"], [1, 1])))
    assert _assert_limit_is_tuple_by_tuple(commas) == (
        SchemaError, "duplicate point label '(a,b,c)'"
    )
    over = Diagram((new_space(["a", "c"], [1, 2**62]), new_space(["b"], [3**39])))
    assert _assert_limit_is_tuple_by_tuple(over) == (
        OverflowLimitError, "lcm at point (c,b) exceeds the 64-bit bound"
    )
    refused = Diagram((new_space([f"p{i}" for i in range(12)], [1] * 12),) * 5)
    assert _assert_limit_is_tuple_by_tuple(refused)[0] is SizeLimitError


def _random_morphism(rng, dom, cod):
    """A random morphism dom -> cod, or None when there is none."""
    rows = []
    for m in dom.mults:
        targets = [j for j, n in enumerate(cod.mults) if m % n == 0]
        if not targets:
            return None
        j = rng.choice(targets)
        rows.append((j, m // cod.mults[j]))
    return BmsMorphism(dom, cod, tuple(rows))


def _random_diagram(rng):
    """2-4 objects of 0-3 points (mostly 3), multiplicities in 1-4, and up to five arrows
    between random (possibly equal) objects."""
    objs = tuple(
        new_space([f"{k}{i}" for i in range(n)], [rng.choice((1, 1, 2, 4)) for _ in range(n)])
        for k, n in zip("abcd", (rng.choice((0, 1, 2, 3, 3, 3)) for _ in range(rng.randint(2, 4))))
    )
    arrows = []
    for _ in range(rng.randint(0, 5)):
        s, t = rng.randrange(len(objs)), rng.randrange(len(objs))
        m = _random_morphism(rng, objs[s], objs[t])
        if m is not None:
            arrows.append((s, t, m))
    return Diagram(objs, tuple(arrows))


def test_limit_matches_full_product_scan_on_random_diagrams():
    rng = random.Random(20_251)
    seen = dict.fromkeys(
        ["forward", "backward", "self-loop", "parallel", "two into one", "empty object", "empty apex",
         "nonempty apex"],
        0,
    )
    for _ in range(1000):
        diagram = _random_diagram(rng)
        cone = _assert_limit_is_naive(diagram)
        ends = [(s, t) for s, t, _ in diagram.arrows]
        seen["forward"] += any(s < t for s, t in ends)
        seen["backward"] += any(s > t for s, t in ends)
        seen["self-loop"] += any(s == t for s, t in ends)
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["two into one"] += any(
            len({s for s, t2 in ends if t2 == t and s != t}) > 1 for _, t in ends
        )
        seen["empty object"] += any(len(o) == 0 for o in diagram.objects)
        seen["empty apex"] += len(cone.apex) == 0
        seen["nonempty apex"] += len(cone.apex) > 1 and len(diagram.arrows) > 1
    assert min(seen.values()) >= 20, seen


def test_named_limits_match_full_product_scan():
    spaces = all_spaces(2, 3)
    for x, y in itertools.product(spaces, repeat=2):
        assert product(x, y) == _assert_limit_is_naive(Diagram((x, y)))
    assert limit(Diagram(())) == _assert_limit_is_naive(Diagram(()))
    for x, y in itertools.product(all_spaces(2, 2), repeat=2):
        for f, g in itertools.product(enumerate_homs(x, y), repeat=2):
            assert equalizer(f, g) == _assert_limit_is_naive(Diagram((x, y), ((0, 1, f), (0, 1, g))))
    rng = random.Random(7)
    for y in spaces:
        into_y = [(w, h) for w in spaces for h in [enumerate_homs(w, y)] if h]
        for _ in range(10 if into_y else 0):
            (w, ws), (v, vs) = rng.choice(into_y), rng.choice(into_y)
            f, g = rng.choice(ws), rng.choice(vs)
            assert pullback(f, g) == _assert_limit_is_naive(Diagram((w, v, y), ((0, 2, f), (1, 2, g))))


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


def _naive_cone_count(diagram, test_apexes):
    """The number of cones from the test apexes, enumerated as the oracle does."""
    return sum(
        all(compose(legs[s], m) == legs[j] for s, j, m in diagram.arrows)
        for t in test_apexes
        for legs in itertools.product(*(enumerate_homs(t, obj) for obj in diagram.objects))
    )


def _with_a_point_duplicated_or_dropped(cone):
    """The cone, then for each apex point the cone with that point
    duplicated and the cone with it dropped."""
    yield cone
    apex = cone.apex
    for i in range(len(apex)):
        dup = new_space([*apex.labels, "dup"], [*apex.mults, apex.mults[i]])
        yield Cone(dup, tuple(BmsMorphism(dup, l.cod, l.rows + (l.rows[i],)) for l in cone.legs))
        keep = [j for j in range(len(apex)) if j != i]
        cut = new_space([apex.labels[j] for j in keep], [apex.mults[j] for j in keep])
        yield Cone(cut, tuple(BmsMorphism(cut, l.cod, tuple(l.rows[j] for j in keep)) for l in cone.legs))


def _universal_cases():
    """(cone, diagram): the products of all_spaces(2, 2) and the equalizers of
    the parallel pairs of all_spaces(1, 3)."""
    pairs = itertools.product(all_spaces(2, 2), repeat=2)
    cases = [(product(x, y), Diagram((x, y))) for x, y in pairs]
    for x, y in itertools.product(all_spaces(1, 3), repeat=2):
        for f, g in itertools.product(enumerate_homs(x, y), repeat=2):
            cases.append((equalizer(f, g), Diagram((x, y), ((0, 1, f), (0, 1, g)))))
    return cases


def test_verify_universal_point_checks_match_naive_oracle():
    apexes = all_spaces(2, 2)
    seen = [0, 0]
    for cone, diagram in _universal_cases():
        for candidate in _with_a_point_duplicated_or_dropped(cone):
            report = verify_universal(candidate, diagram, apexes)
            naive = _naive_universal(candidate, diagram, apexes)
            assert bool(report["violations"]) == bool(naive)
            assert report["cones"] == _naive_cone_count(diagram, apexes)
            seen[bool(naive)] += 1
    assert min(seen) > 0


def _per_probe_verify_universal(candidate, diagram, test_apexes):
    """Oracle: ``verify_universal`` as it was before its set-up ran once per
    call, with one ``hom_factors`` call per probe and two walks of the test
    apexes after the probes."""
    probes = {t.mults[0]: t for t in reversed(test_apexes) if len(t.mults) == 1}
    apex_mults, legs = candidate.apex.mults, candidate.legs
    ncones, found = {}, {}
    for m in sorted({tm for t in test_apexes for tm in t.mults}):
        point = probes.get(m)
        if point is None:
            point = MultiSpace(("t",), (m,))
        mediators = {}
        for row in hom_factors((m,), apex_mults)[0]:
            key = tuple(compose_rows((row,), leg.rows) for leg in legs)
            mediators[key] = mediators.get(key, 0) + 1
        cones = limits._cones_from(point, diagram)
        messages = []
        for cone in cones:
            n = mediators.get(tuple(l.rows for l in cone), 0)
            if n != 1:
                what = f"{n} mediating morphisms" if n else "no mediating morphism"
                messages.append(f"{what} from {point!r} for cone {[l.targets for l in cone]}")
        ncones[m] = len(cones)
        found[m] = messages
    total, decided = 0, set()
    for t in test_apexes:
        n = math.prod(ncones[tm] for tm in t.mults)
        if n:
            total += n
            decided.update(t.mults)
    return {"cones": total, "violations": [v for m in sorted(decided) for v in found[m]]}


def test_verify_universal_reports_match_the_per_probe_oracle():
    # The multiplicities 3 and 4 occur only in two-point apexes, so their
    # probes are spaces built for the call; where one point of a two-point
    # apex has no cone, the violations at the other are not reported.
    two_point_only = all_spaces(1, 2) + [
        new_space(["p1", "p2"], [3, 1]),
        new_space(["q1", "q2"], [3, 4]),
    ]
    # Two one-point apexes share each multiplicity: the first is the probe.
    twins = [new_space([l], [m]) for l in "uv" for m in (1, 2)]
    apex_lists = [all_spaces(2, 2), two_point_only, twins, [new_space(["p1", "p2"], [2, 1])], []]
    seen = [0, 0]
    for cone, diagram in _universal_cases():
        for candidate in _with_a_point_duplicated_or_dropped(cone):
            for apexes in apex_lists:
                report = verify_universal(candidate, diagram, apexes)
                assert report == _per_probe_verify_universal(candidate, diagram, apexes)
                seen[bool(report["violations"])] += 1
    assert min(seen) > 0, seen


def test_verify_universal_looks_up_the_homs_cache_twice_per_probe():
    # The benchmark reports limits._homs.hit_ratio, and its self-test needs
    # it above zero on the limit law: each probe of a product reaches the
    # cache once per object.
    x, y = new_space(["a", "b"], [1, 2]), new_space(["c"], [3])
    apexes = all_spaces(2, 3)
    before = limits._homs.cache_info()
    verify_universal(product(x, y), Diagram((x, y)), apexes)
    after = limits._homs.cache_info()
    probes = len({m for t in apexes for m in t.mults})
    assert (after.hits + after.misses) - (before.hits + before.misses) == 2 * probes
    assert after.hits > before.hits


def test_verify_universal_reports_only_what_a_test_apex_decides():
    # no cone from a multiplicity-1 point reaches the multiplicity-2 objects,
    # so no cone from the two-point apex reaches the duplicated point
    a2, b2 = new_space(["a"], [2]), new_space(["b"], [2])
    dup = next(c for c in _with_a_point_duplicated_or_dropped(product(a2, b2)) if len(c.apex) == 2)
    diagram = Diagram((a2, b2))
    apexes = [new_space(["p1", "p2"], [2, 1])]
    assert _naive_universal(dup, diagram, apexes) == []
    assert verify_universal(dup, diagram, apexes) == {"cones": 0, "violations": []}
    report = verify_universal(dup, diagram, [new_space(["p1"], [2])])
    assert report["cones"] == 1 and report["violations"] == [
        "2 mediating morphisms from MultiSpace(p1:2) for cone [('a',), ('b',)]"
    ]


def test_verify_universal_empty_diagram():
    apexes = all_spaces(2, 2)
    report = verify_universal(limit(Diagram(())), Diagram(()), apexes)
    assert report["violations"] == []
    assert report["cones"] == len(apexes)


def _spaces_built_by_limits(monkeypatch):
    """The spaces that ``limits`` builds from here on, in order."""
    built = []

    def counted(*args):
        built.append(MultiSpace(*args))
        return built[-1]

    monkeypatch.setattr(limits, "MultiSpace", counted)
    return built


def test_verify_universal_probes_with_the_one_point_test_apexes(monkeypatch):
    x, y = new_space(["a", "b"], [1, 2]), new_space(["c"], [3])
    cone, diagram = product(x, y), Diagram((x, y))
    apexes = all_spaces(2, 3)
    built = _spaces_built_by_limits(monkeypatch)
    report = verify_universal(cone, diagram, apexes)
    assert report == {"cones": _naive_cone_count(diagram, apexes), "violations": []}
    assert built == []


def test_verify_universal_builds_one_probe_per_multiplicity_without_one(monkeypatch):
    x, y = new_space(["a", "b"], [1, 2]), new_space(["c"], [3])
    cone, diagram = product(x, y), Diagram((x, y))
    apexes = [new_space(["p1", "p2"], [2, 3]), new_space(["p1"], [2]), new_space(["q1", "q2"], [4, 3])]
    built = _spaces_built_by_limits(monkeypatch)
    report = verify_universal(cone, diagram, apexes)
    assert report == {"cones": _naive_cone_count(diagram, apexes), "violations": []}
    assert built == [new_space(["t"], [3]), new_space(["t"], [4])]

    # a violation names the probe built for its multiplicity
    a2, b2 = new_space(["a"], [2]), new_space(["b"], [2])
    dup = next(c for c in _with_a_point_duplicated_or_dropped(product(a2, b2)) if len(c.apex) == 2)
    del built[:]
    report = verify_universal(dup, Diagram((a2, b2)), [new_space(["p1", "p2"], [2, 2])])
    assert built == [new_space(["t"], [2])]
    assert report["cones"] == 1 and report["violations"] == [
        "2 mediating morphisms from MultiSpace(t:2) for cone [('a',), ('b',)]"
    ]


def test_verify_couniversal_coproduct():
    x = new_space(["a"], [2])
    y = new_space(["b", "c"], [1, 2])
    apexes = all_spaces(2, 4)
    report = verify_couniversal(coproduct(x, y), apexes)
    assert report["violations"] == []
    assert report["cocones"] == sum(
        len(enumerate_homs(x, t)) * len(enumerate_homs(y, t)) for t in apexes
    )


def test_limit_law_sweep_small():
    assert check_limit_law(all_spaces(2, 3), all_spaces(2, 3)) == []


def test_group_product_and_coproduct():
    z1 = function_group(new_space(["z"], [1]))
    z2 = function_group(new_space(["z"], [2]))
    prod = group_product(z1, z2)
    assert prod.apex.base.mults == (1, 2)
    for proj in prod.legs:
        assert proj.dom == prod.apex

    z3 = function_group(new_space(["z"], [3]))
    cop = group_coproduct(z2, z3)
    assert cop.apex.base.mults == (6,)
    for inj in cop.injections:
        assert inj.cod == cop.apex

    trivial = function_group(new_space([], []))
    assert group_product(z2, trivial).apex.base.mults == (2,)


def test_duality_exchange_small():
    assert check_duality_exchange(all_spaces(2, 3)) == []


def test_group_injections_are_dual_projections():
    x = new_space(["a", "b"], [1, 2])
    y = new_space(["c"], [3])
    cone = product(x, y)
    cop = group_coproduct(function_group(x), function_group(y))
    for leg, inj in zip(cone.legs, cop.injections):
        assert dual_hom(leg) == inj


def test_group_projections_are_dual_injections():
    for x, y in itertools.product(all_spaces(2, 3), repeat=2):
        prod = group_product(function_group(x), function_group(y))
        assert isinstance(prod, Cone)
        assert prod.legs == tuple(dual_hom(i) for i in coproduct(x, y).injections)

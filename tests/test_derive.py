"""Relations among matrix entries forced by the plane endomorphisms."""

import pytest

from grasspq.coeff import P
from grasspq.errors import InconsistentConvention
from grasspq.freealg import (
    EVEN,
    ODD,
    Poly,
    Presentation,
    RewriteRule,
    build_presentation,
    derive_relations,
    overlap_check,
    preset,
)
from grasspq.cli import builtin_preset_text, load_presentation
from grasspq.matops import span_equal
from grasspq.verify import FAMILIES
from test_freealg import reference_derive

w = Poly.word


def test_all_odd_matrix_between_planes_recovers_grassmann_relations():
    forward = derive_relations(preset("plane_p20"), preset("plane_q02"), "all_odd")
    backward = derive_relations(preset("plane_q02"), preset("plane_p20"), "all_odd")
    # the forward direction pins 9 of the 10 relations; the backward one
    # supplies the remaining combination in the (bg, gb, da, ad) block
    assert len(forward) == 9
    assert len(backward) == 1
    combined = forward + backward
    assert span_equal(combined, preset("gr2").relation_polys(),
                      label="gr2-derivation").passed
    # neither direction alone spans everything
    assert not span_equal(forward, preset("gr2").relation_polys(),
                          label="gr2-forward-only").passed


def test_diag_odd_matrix_between_superplanes_recovers_supergroup_relations():
    forward = derive_relations(preset("plane_p11"), preset("plane_q11_dual"), "diag_odd")
    backward = derive_relations(preset("plane_q11_dual"), preset("plane_p11"), "diag_odd")
    assert len(forward) == 4
    assert len(backward) == 4
    assert span_equal(forward + backward, preset("gr11").relation_polys(),
                      label="gr11-derivation").passed


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_families_derived_from_the_shipped_plane_files_span_the_shipped_family_files(name):
    # derive_relations trusts a loaded plane's own rules, as it does a builder's
    def load(preset_name):
        return load_presentation(builtin_preset_text(preset_name))

    row = FAMILIES[name]
    one, other = (load(plane) for plane in row.planes)
    derived = derive_relations(one, other, row.kind) + derive_relations(other, one, row.kind)
    assert span_equal(derived, load(name).relation_polys(), seed=1).passed


def test_derived_relations_are_quadratic():
    for rels in (
        derive_relations(preset("plane_p20"), preset("plane_q02"), "all_odd"),
        derive_relations(preset("plane_p11"), preset("plane_q11_dual"), "diag_odd"),
        derive_relations(preset("plane_p20"), preset("plane_p20"), "all_even"),
    ):
        assert rels
        assert all(poly.is_homogeneous(2) for poly in rels)


def test_degenerate_same_plane_even_entries():
    rels = derive_relations(preset("plane_p20"), preset("plane_p20"), "all_even")
    # a (p,p)-deformed matrix bialgebra fragment: nonempty, degree-2
    assert len(rels) == 3
    assert all(poly.is_homogeneous(2) for poly in rels)


def test_commute_convention_differs_from_koszul():
    # with mixed entry parities the Koszul signs are load-bearing: the
    # unsigned convention, which only the test-side reference keeps,
    # derives a different span and misses the supergroup relations
    def both(derive, *convention):
        return (derive(preset("plane_p11"), preset("plane_q11_dual"), "diag_odd", *convention)
                + derive(preset("plane_q11_dual"), preset("plane_p11"), "diag_odd", *convention))

    koszul = both(derive_relations)
    plain = both(reference_derive, "commute")
    assert not span_equal(koszul, plain, label="conventions").passed
    assert not span_equal(plain, preset("gr11").relation_polys(),
                          label="commute-vs-gr11").passed


@pytest.mark.parametrize("kind", ["diag_odd", "all_odd"])
def test_a_parity_mixed_source_plane_is_refused_under_koszul(kind):
    # x*x = xi*x has an even and an odd side, so no sign moves an entry past
    # it; completing the entries and this plane together runs into MAX_RULES
    # under diag_odd and collapses to two relations under all_odd
    mixed = build_presentation("mixed", [("x", EVEN), ("xi", ODD)], [w("x", "x") - w("xi", "x")])
    with pytest.raises(InconsistentConvention, match="mixes parities"):
        derive_relations(mixed, preset("plane_p20"), kind)


def test_a_non_confluent_source_plane_is_refused():
    # y*y*x rewrites to x^3 through y*y and to p^2 x^3 through y*x
    skew = Presentation("skew", [("x", EVEN), ("y", EVEN)], [
        RewriteRule(("y", "y"), w("x", "x")), RewriteRule(("y", "x"), w("x", "y", coeff=P))])
    assert not overlap_check(skew).passed
    with pytest.raises(InconsistentConvention, match="not confluent"):
        derive_relations(skew, preset("plane_p20"), "all_even")

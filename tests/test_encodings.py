from __future__ import annotations

import hashlib
import itertools
import json
import random

import pytest

from qitbench.encodings import (
    NIL,
    bag_of,
    bag_term,
    cons,
    contains_algebra,
    count_algebra,
    length_algebra,
    omega_tree_of,
    one_point_algebra,
    ordinal_notations,
    parity_algebra,
)
from qitbench.engine import closed_terms, new_qw
from qitbench.equations import sat_check
from qitbench.errors import WorkbenchError
from qitbench.schema import elaborate, parse_decl
from qitbench.terms import OMEGA, Node, canonical_dumps, omega_table


def _digest(inst):
    obj = {"signature": inst.signature.to_json(), "equations": inst.system.to_json()}
    return hashlib.sha256(canonical_dumps(obj).encode()).hexdigest()


SWAP01 = ((0, 1), (1, 0))
CYCLE3 = ((0, 1), (1, 2), (2, 0))


@pytest.mark.parametrize(
    "elements, digest",
    [
        (("a",), "6e8115b87df1e9c963b1e57e79f82690b4f9f5573eb05a9f75b38705375af69e"),
        (("a", "b"), "1c8a2c6dad01701cc3039c35aef927df7c0afa325911d1db148469e09c425770"),
        (("a", "b", "c"), "c859a8971fe478ca6d366a6c427a3ae37936a9c58a7459defc1d61e05a9ada75"),
        ((1, 2), "eba6c34810b94354cfa860e10f84b1cdd0ed8726f8bee37bdd82992653723576"),
    ],
)
def test_bag_instances_are_pinned(elements, digest):
    assert _digest(bag_of(elements)) == digest


@pytest.mark.parametrize(
    "probe, perms, digest",
    [
        (1, [()], "6176a935cb59457b160c3330aa57824e38dbf5ffe57b37069e6be254f5cc20fb"),
        (2, [()], "40847b322b6dfac291f0eb66d60ff31f935befdba30144415847596360f5bb7f"),
        (2, [SWAP01], "2adfce874bc272d09e68246119dea32a00a84602c0dfa53d67ba2c78da591749"),
        (2, [SWAP01, ()], "ae65d682450f126c30386497390c490723ee9006f078749d2971e3f6c100298a"),
        (3, [()], "d1ada7ece6343adbf5407e31c6e390a59c469a8facb6da706f53219c05dc0e6d"),
        (3, [SWAP01], "e613cb6672b2acd2cf4222b147f8e733fcda830beddaba50f35027852f19b4b0"),
        (3, [SWAP01, CYCLE3], "ba9f13179eaa448b69d39ed0865bc06fc57e5240f56d8f6c24ef13b534958e16"),
    ],
)
def test_omega_tree_instances_are_pinned(probe, perms, digest):
    assert _digest(omega_tree_of(("a", "b"), probe, perms)) == digest


def test_default_instances_are_the_fixture_declarations(fixtures):
    for inst, name in ((bag_of(("a", "b")), "bag.qit"), (omega_tree_of(), "omega_tree.qit")):
        sig, system = elaborate(parse_decl((fixtures / name).read_text()))
        assert (inst.signature, inst.system) == (sig, system)


def test_bag_oracle_examples(bag):
    oracle = bag.oracle
    assert oracle(bag_term(["a", "b"]), bag_term(["b", "a"]))
    assert not oracle(bag_term(["a"]), bag_term(["b"]))
    assert oracle(NIL, NIL)


def test_bag_oracle_is_congruent_equivalence(bag):
    # reflexive, symmetric, transitive, and a congruence, on seeded random
    # closed terms
    rng = random.Random(8)
    pool = closed_terms(bag.signature, 5)
    oracle = bag.oracle
    for _ in range(300):
        t, u, v = (rng.choice(pool) for _ in range(3))
        assert oracle(t, t)
        assert oracle(t, u) == oracle(u, t)
        if oracle(t, u) and oracle(u, v):
            assert oracle(t, v)
        if oracle(t, u):
            for x in ("a", "b"):
                assert oracle(cons(x, t), cons(x, u))


def test_engine_sound_against_oracle(bag):
    # proved equalities are true in the oracle for every pair in the bound
    st = new_qw(bag.signature, bag.system)
    classes = st.enumerate_classes(4)
    pool = closed_terms(bag.signature, 4)
    ids = {t: st.intern_term(t) for t in pool}
    st.saturate()
    for t, u in itertools.combinations(pool, 2):
        if st.same_class(ids[t], ids[u]):
            assert bag.oracle(t, u)
    assert classes


def test_bag_reference_algebras_satisfy(bag):
    for alg in (length_algebra(4), parity_algebra(), contains_algebra("a"), count_algebra("a", 3)):
        assert sat_check(alg, bag.system).satisfied


def test_omega_tree_validation():
    with pytest.raises(WorkbenchError):
        omega_tree_of(("a",), 2, [((0, 1), (1, 1))])  # not a bijection
    with pytest.raises(WorkbenchError):
        omega_tree_of(("a",), 2, [((0, 5), (5, 0))])  # outside the probe


def test_instance_elements_must_read_back_from_the_declaration():
    # an element that is not one identifier or numeral would be read back
    # as other elements, or refused by the parser
    for elements in (("a b",), ("01",), ("x-y",)):
        with pytest.raises(WorkbenchError):
            bag_of(elements)
        with pytest.raises(WorkbenchError):
            omega_tree_of(elements, 2, [()])


def test_omega_tree_identity_permutation_is_reflexive():
    inst = omega_tree_of(("a",), 2, [()])
    (eq,) = inst.system.equations
    assert eq.lhs == eq.rhs


def test_ordinal_signature_shape():
    inst = ordinal_notations()
    assert inst.signature.arity("sup") == OMEGA
    assert inst.signature.arity("zero").finite == 0
    assert inst.signature.arity("suc").finite == 1
    assert len(inst.system.equations) == 5
    assert inst.oracle is None


def test_ordinal_distinct_notations_stay_unknown():
    inst = ordinal_notations()
    st = new_qw(inst.signature, inst.system, max_rounds=4)
    zero = st.intern_term(Node("zero", ()))
    one = st.intern_term(Node("suc", (Node("zero", ()),)))
    assert not st.decide_eq(zero, one).proved


def test_ordinal_sup_laws_prove_collapses():
    inst = ordinal_notations()
    st = new_qw(inst.signature, inst.system, max_rounds=4)
    zero = Node("zero", ())
    one = Node("suc", (zero,))
    sup_const = st.intern_term(Node("sup", omega_table([], one)))
    target = st.intern_term(one)
    assert st.decide_eq(sup_const, target).proved


def test_ordinal_one_point_satisfies():
    inst = ordinal_notations()
    assert sat_check(one_point_algebra(), inst.system).satisfied


def test_one_point_satisfies_everything(bag, omega_tree):
    for inst in (bag, omega_tree):
        assert sat_check(one_point_algebra(), inst.system).satisfied


def test_instances_serialize_to_standard_json(bag, omega_tree):
    for inst in (bag, omega_tree, ordinal_notations()):
        obj = {"signature": inst.signature.to_json(), "equations": inst.system.to_json()}
        assert obj["signature"]["ops"]
        assert "probe" in obj["equations"]


def test_expected_enumeration_counts_fixture(fixtures, bag, omega_tree):
    expected = json.loads((fixtures / "enumeration_counts.json").read_text())
    for bound, count in expected["bag(a,b)"].items():
        st = new_qw(bag.signature, bag.system)
        assert len(st.enumerate_classes(int(bound))) == count
    for bound, count in expected["omega_tree(a,b)@probe2"].items():
        st = new_qw(omega_tree.signature, omega_tree.system)
        assert len(st.enumerate_classes(int(bound))) == count
    from qitbench.translate import from_w_reductions, from_w_suspension

    sig, system = from_w_suspension([("t", 0), ("f", 0)], [("cell", "t", "f")])
    for bound, count in expected["w_suspension_two_point"].items():
        assert len(new_qw(sig, system).enumerate_classes(int(bound))) == count
    sig, system = from_w_reductions([("mk", 2)], {"mk": 0})
    for bound, count in expected["w_reductions_free_v"].items():
        st = new_qw(sig, system, generators=("v",))
        assert len(st.enumerate_classes(int(bound))) == count

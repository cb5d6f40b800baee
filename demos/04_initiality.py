"""Recursion out of the constructed carrier, and why it is unique.

A recursion target is an algebra together with a checked proof that it
satisfies the equations.  Recursion evaluates canonical representatives;
runtime checks confirm that recursion is an algebra map on every member of
the fragment's classes, so the value is independent of the member picked,
that it is the only one on the fragment, and that dependent elimination
computes as expected.
"""

import itertools

from qitbench import (
    check_comp,
    check_rec_hom,
    check_uniq,
    dep_target,
    new_qw,
    qw_elim,
    qw_rec,
    rec_target,
)
from qitbench.encodings import bag_of, bag_term, length_algebra
from qitbench.terms import branch_values

inst = bag_of(("a",))
state = new_qw(inst.signature, inst.system)
classes = state.enumerate_classes(4)  # [], a, aa, aaa
fragment = [c for c, _ in classes]
print("fragment classes:", len(fragment))

target = rec_target(length_algebra(3), inst.system)
c = state.intern_term(bag_term(["a", "a"]))
print("recursion of aa into the length algebra:", qw_rec(state, target, c))

print("algebra-map law:", check_rec_hom(state, target, classes=fragment).to_json())

# Uniqueness, brute force: of all 4^4 maps from the fragment into the
# carrier, exactly one passes the algebra-map premise, and it is the
# recursion.
recursion = {c: qw_rec(state, target, c) for c in fragment}
maps = 0
for images in itertools.product(target.algebra.carrier, repeat=4):
    h = dict(zip(fragment, images))
    if check_uniq(state, target, h).premise_ok:
        maps += 1
        assert h == recursion
print("algebra maps found by exhaustive search:", maps)

# Dependent elimination through (class, value) pairs: here the family is a
# constant one and the step mirrors the length algebra, so elimination
# agrees with recursion and the computation rule holds on every class.
def step(op, idxs, vals):
    if op == "nil":
        return 0
    return min(next(iter(branch_values(vals))) + 1, 3)

dep = dep_target(state, lambda c: tuple(range(4)), step, classes=fragment)
print("elimination of aa:", qw_elim(state, dep, c))
print("computation rule:", check_comp(state, dep, classes=fragment).to_json())

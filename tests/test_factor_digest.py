"""The rank-q factor's invariants equal the recorded ones.

The digest was recorded when `det_cocycle`, `clutching_twist`,
`clutching_omega` and `FactorOfAutomorphy.records()` read N^v from built
generalized permutation-phase matrices (their determinant, translate and
phases): the same records, determinant phases, Chern forms, twists and
omegas come out of the integer words."""

import hashlib

from flattori.autofactor import (
    clutching_omega,
    clutching_twist,
    det_cocycle,
    factor_from,
    mumford_c1,
)


def recorded_digest():
    """(sha256 of every factor's invariants for q 1..9 and a -9..9; the
    number of values hashed)."""
    digest, count = hashlib.sha256(), 0
    for q in range(1, 10):
        for a in range(-9, 10):
            F = factor_from(q, a)
            det = det_cocycle(F)
            values = [q, a, F.records(),
                      [(p.den, p.nums, p.num) for p in det.phases],
                      mumford_c1(det).mat.entries,
                      clutching_twist(F), clutching_omega(F).phase]
            count += len(values)
            digest.update(repr(values).encode())
    return digest.hexdigest(), count


RECORDED_DIGEST = "a83a5fe0f70cf6341a847254105a2c7a04ed24db067efa147f0a1ea820af2fd9"
RECORDED_COUNT = 9 * 19 * 7


def test_factor_invariants_match_the_recorded_ones():
    assert recorded_digest() == (RECORDED_DIGEST, RECORDED_COUNT)

import itertools
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from resconv.combs import OneComb
from resconv.instances import ProbVector, VectorTheory
from resconv.linalg import feasible_nonneg_solution
from resconv.stoch import FinSet, StochMap, finset, random_stoch_map, tensor

F = Fraction

# The package modules, for the tests that check a rule on every source file.
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "resconv").glob("*.py"))


@pytest.fixture
def food():
    return VectorTheory(2, "additive")


@pytest.fixture
def proficiency():
    return VectorTheory(2, "supremal")


def pushforward(p: ProbVector, func, out_len: int) -> tuple:
    out = [F(0)] * out_len
    for i, x in enumerate(p.entries):
        out[func[i]] += x
    return tuple(out)


def brute_force_coarse_graining(p: ProbVector, q: ProbVector) -> bool:
    """Independent oracle: enumerate every function between the index sets."""
    for func in itertools.product(range(len(q)), repeat=len(p)):
        if pushforward(p, func, len(q)) == q.entries:
            return True
    return False


def doubly_stochastic_mixable(s: ProbVector, t: ProbVector) -> bool:
    """Independent oracle: s is a doubly-stochastic image of t, decided as
    membership in the convex hull of the permutations of t."""
    n = max(len(s), len(t))
    sv = list(s.entries) + [F(0)] * (n - len(s))
    tv = list(t.entries) + [F(0)] * (n - len(t))
    columns = [tuple(tv[i] for i in perm)
               for perm in itertools.permutations(range(n))]
    equations = [[col[row] for col in columns] for row in range(n)]
    equations.append([F(1)] * len(columns))
    rhs = sv + [F(1)]
    return feasible_nonneg_solution(equations, rhs) is not None


def contract_comb_on_process(k: OneComb, f: StochMap) -> list[list[Fraction]]:
    """Nested-loop contraction oracle for plugging f into a one-hole comb;
    stays away from the compose/tensor machinery on purpose."""
    na, nb = len(k.hole_dom), len(k.hole_cod)
    nz = len(k.ancilla)
    nap, nbp = len(k.pre.dom), len(k.post.cod)
    out = [[F(0)] * nap for _ in range(nbp)]
    for ap in range(nap):
        for bp in range(nbp):
            total = F(0)
            for a in range(na):
                for z in range(nz):
                    pre = k.pre.matrix[a * nz + z][ap]
                    if pre == 0:
                        continue
                    for b in range(nb):
                        total += k.post.matrix[bp][b * nz + z] * f.matrix[b][a] * pre
            out[bp][ap] = total
    return out


def random_comb(rng: Random, hole_dom: FinSet, hole_cod: FinSet,
                outer_dom: FinSet, outer_cod: FinSet, anc_size: int = 2) -> OneComb:
    z = finset(f"Z{rng.randrange(1000)}", anc_size)
    pre = random_stoch_map(rng, outer_dom, tensor(hole_dom, z))
    post = random_stoch_map(rng, tensor(hole_cod, z), outer_cod)
    return OneComb(z, pre, post, hole_dom, hole_cod)

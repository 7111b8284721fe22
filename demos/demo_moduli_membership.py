"""Exact membership checking in the deformation families.

Starting from a configuration of points on the deformed group, the orbit
map produces distance coordinates that satisfy every defining equation, at
any deformation parameter including a Gaussian-rational one.  Strata are
read off exactly, and the twisting involution preserves membership.
"""
from fractions import Fraction as F

from cactusflower import (
    NuTuple,
    VarietySpec,
    check_membership,
    classify_strata,
    losev_manin_iso,
    orbit_map,
)
from cactusflower.projective import PP_ZERO, ProjPoint, sigma_flower
from cactusflower.scalars import I

xs = {1: F(0), 2: F(1, 3), 3: F(2), 4: F(5)}
for eps in (F(0), F(1), I):
    point = orbit_map(xs, eps)
    report = check_membership(VarietySpec("DeformedFlower", 4), point)
    print(f"orbit point at epsilon = {eps}: {report}")
    image = sigma_flower(point)
    print("  twisted image is a member:",
          check_membership(VarietySpec("DeformedFlower", 4), image).ok)

print("\nmultiplicative chart at epsilon = 1:")
alpha = losev_manin_iso(orbit_map(xs, F(1)))
print(" ", check_membership(VarietySpec("LosevManin", 4), alpha))

print("\nstrata of a three-petal nine-point configuration:")
positions = {1: 0, 4: 0, 7: 0, 3: 0, 8: 1, 2: 0, 5: 0, 6: 0, 9: 1}
petal = {1: 0, 4: 0, 7: 0, 3: 1, 8: 1, 2: 2, 5: 2, 6: 2, 9: 2}
nu = {}
for i in range(1, 10):
    for j in range(1, 10):
        if i != j:
            if petal[i] != petal[j]:
                nu[(i, j)] = PP_ZERO
            else:
                nu[(i, j)] = ProjPoint(1, F(positions[i] - positions[j]))
point = NuTuple(9, nu, None)
s, b, dims = classify_strata(point)
print("  finiteness partition:", s)
print("  coincidence partition:", b)
print("  stratum dimensions:", dims)

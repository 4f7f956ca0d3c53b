"""Build symmetric pairs for the three families and look around.

Each pair carries the form, the involution, and cached bases of both
eigenspaces, all over exact rationals; together they are a basis of g.
"""

from symslice import Family, apply_theta, bracket, in_algebra, make_pair

for family, p, q in [(Family.GL, 3, 2), (Family.ORTH, 3, 2), (Family.SP, 4, 2)]:
    pair = make_pair(family, p, q)
    print(f"{family.name} pair with blocks ({p}, {q}):")
    dim_g = len(pair.basis_plus) + len(pair.basis_minus)
    print(f"  ambient dimension  dim g     = {dim_g}")
    print(f"  fixed part         dim g(+1) = {len(pair.basis_plus)}")
    print(f"  odd part           dim g(-1) = {len(pair.basis_minus)}")
    print(f"  rank of the involution       = {pair.rank_theta}")

    # the involution really is conjugation by the signature matrix
    x = pair.basis_minus[0]
    assert apply_theta(pair, x) == -1 * x

    # the grading: brackets of odd elements land in the fixed part
    y = pair.basis_minus[-1]
    z = bracket(x, y)
    assert in_algebra(pair, z) and apply_theta(pair, z) == z
    print("  checked: theta eigenvalues and bracket grading are exact")
    print()

print("The symplectic family needs even blocks:")
try:
    make_pair(Family.SP, 3, 2)
except Exception as exc:
    print(f"  rejected as expected: {exc}")

"""The banded nilpotent representatives and their centralizers.

For every valid pair the constructed element is nilpotent, lies in the
odd part, and its centralizer there has the minimal possible dimension
(the rank of the involution), which is the relative-regularity
criterion.  The closed-form oracle, the odd powers e, e^3, ... of e
(with one extra element on o(q,q)), agrees with the generic kernel
computation, span for span.
"""

from symslice import (
    Family,
    centralizer,
    closed_form_centralizer,
    is_relatively_regular,
    make_pair,
    matrix_to_text,
    nilpotency_index,
    regular_nilpotent,
    spans_equal,
)

pair = make_pair(Family.ORTH, 3, 3)
e = regular_nilpotent(pair)
print("orthogonal (3,3) representative:")
print(matrix_to_text(e))
print(f"nilpotency index: {nilpotency_index(e)}")

cent = centralizer(pair, e)
print(f"centralizer dimension in g(-1): {len(cent)} (rank = {pair.rank_theta})")
print(f"relatively regular: {is_relatively_regular(pair, e)}")

closed = closed_form_centralizer(pair)
print(f"closed-form oracle spans the same space: {spans_equal(cent, closed)}")
print()

print("the zero matrix is never regular once the odd part is bigger than the rank:")
from symslice import RatMatrix

gl = make_pair(Family.GL, 2, 1)
print(f"  gl(2,1): is_relatively_regular(0) = {is_relatively_regular(gl, RatMatrix.zeros(3, 3))}")

print("sweep over a range of cases:")
for family, pmax in [(Family.GL, 4), (Family.ORTH, 4), (Family.SP, 4)]:
    for p in range(1, pmax + 1):
        for q in range(1, p + 1):
            try:
                pair = make_pair(family, p, q)
            except Exception:
                continue
            e = regular_nilpotent(pair)
            dim = len(centralizer(pair, e))
            print(f"  {family.value:>2}({p},{q}): centralizer dim {dim}, rank {pair.rank_theta}")

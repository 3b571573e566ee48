"""Root data and Weyl groups for the equal-rank classical real families.

All weights live in ambient epsilon-coordinates and have length equal to
the rank.  The exchange type ``Weight`` is a tuple of exact rationals; the
kernels work on its integer form ``(den, nums)``, the numerators over one
denominator, the lcm of the entries' denominators (``int_form``).  That
denominator is coprime to the content, so equal weights have equal forms,
which hash as plain integer tuples.  Roots are integral and stored as
integer tuples; rho_g and rho_k are integer root sums halved once.  The
six supported families and their compact/noncompact splits:

* ``SU(p,q)``        -- type A_{p+q-1} in Q^{p+q}; roots e_i - e_j; a root is
                        compact iff i, j <= p or i, j > p.
* ``SOe(2p,2q+1)``   -- type B_{p+q}; roots e_i +- e_j (i<j) and e_i; compact
                        part is the D_p block on the first p coordinates plus
                        the B_q block on the last q.
* ``Sp(2n,R)``       -- type C_n; compact part {e_i - e_j} (K = U(n)).
* ``Sp(p,q)``        -- type C_{p+q}; compact part C_p x C_q blocks.
* ``SOe(2p,2q)``     -- type D_{p+q}; compact part D_p x D_q blocks.
* ``SO*(2n)``        -- type D_n; compact part {e_i - e_j} (K = U(n)).

Weyl group elements are signed permutations: all signs +1 in type A, an
even number of -1 signs in type D.  The blocks of a layout cover the
coordinates in order, so ``weyl_elements`` builds each element of W_g or
W_k as one move of each block, its permutation and signs on the block's
own coordinates (``_block_moves``), laid side by side.  One chamber kernel,
``_chamber_block``, sorts the entries of one block into its dominant
chamber, singular weights included; it acts alike on a weight and on the
numerators of its integer form.  ``_signed_dominant(blocks, gamma)`` runs
it on each of the blocks and returns (sign(x), x.gamma) for the x with
x.gamma dominant, or None when gamma is singular, without building x:
pass ``datum.compact_blocks`` for W_k, as ``normalize_k_dominant`` and
through it every K-type sum do.  ``simple_roots`` keeps the positive
roots whose coroots pair to 1 with rho_g.
SU(p,q) weights are *not* quotiented by the trace line; every quantity
computed downstream is invariant under adding a multiple of (1,...,1),
and the SU lattice accordingly contains all vectors with pairwise
integral coordinate differences.

The rank cap has one owner, ``check_rank``: the environment variable
DIRAC_MAX_RANK, else ``DEFAULT_RANK_CAP``.  ``build_root_datum`` checks
every group against it, and the command line the ``--n`` of ``char-poly``
and ``gcd``.
"""

from __future__ import annotations

import math
import os
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations, product, repeat
from operator import add, attrgetter, floordiv, gt, lt, mod, mul, ne, sub

from .errors import (
    DimensionMismatch,
    EnumerationCapExceeded,
    IllegalParams,
    InternalInvariantError,
    InvalidInput,
    OffLattice,
    RankCapExceeded,
    _echo,
)
from .value import Value

Weight = tuple[Fraction, ...]
Root = tuple[int, ...]
IntWeight = tuple[int, tuple[int, ...]]  # (den, nums): the weight nums / den

DEFAULT_RANK_CAP = 8
DEFAULT_WEYL_CAP = 100_000


def weight_add(a: Weight, b: Weight) -> Weight:
    if len(a) != len(b):
        raise DimensionMismatch(f"weight lengths {len(a)} != {len(b)}")
    return tuple(x + y for x, y in zip(a, b))


def dot(a: Weight, b: Weight) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatch(f"weight lengths {len(a)} != {len(b)}")
    return Fraction(sum(map(mul, a, b)))


# The integer-form kernels build their tuples with map over operator
# functions, so the per-entry work runs in C, with no Python frame.
_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


def int_form(w: Weight) -> IntWeight:
    """(den, nums) with w = nums / den and den the lcm of the denominators;
    an entry that is not an int or a Fraction raises InvalidInput."""
    try:
        den = math.lcm(*map(_denominator, w))
    except AttributeError:
        bad = next(c for c in w if not hasattr(c, "denominator"))
        raise InvalidInput(f"weight entry {bad!r} is not an integer or a fraction") from None
    if den == 1:
        return 1, tuple(map(_numerator, w))
    scales = map(floordiv, repeat(den), map(_denominator, w))
    return den, tuple(map(mul, map(_numerator, w), scales))


def reduced(den: int, nums: tuple[int, ...]) -> IntWeight:
    """The integer form of the weight nums / den."""
    g = math.gcd(den, *nums)
    return (den, nums) if g == 1 else (den // g, tuple(map(floordiv, nums, repeat(g))))


def int_add(a: IntWeight, b: IntWeight) -> IntWeight:
    """The integer form of the sum of two weights given by their forms."""
    (da, na), (db, nb) = a, b
    if len(na) != len(nb):
        raise DimensionMismatch(f"weight lengths {len(na)} != {len(nb)}")
    # Adding multiples of d to numerators over d keeps their gcd with d at 1.
    if db == 1:
        return da, tuple(map(add, na, nb if da == 1 else map(mul, nb, repeat(da))))
    if da == 1:
        return db, tuple(map(add, map(mul, na, repeat(db)), nb))
    den = math.lcm(da, db)
    return reduced(den, tuple(map(add, map(mul, na, repeat(den // da)),
                                  map(mul, nb, repeat(den // db)))))


def over(form: IntWeight, den: int) -> tuple[int, ...]:
    """The numerators of a weight over den, a multiple of its denominator."""
    scale = den // form[0]
    return form[1] if scale == 1 else tuple(map(mul, form[1], repeat(scale)))


def idot(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Integer dot product; the caller has checked that the lengths agree."""
    return sum(map(mul, a, b))


class Family(Enum):
    SU = "SU"
    SO_EVEN_ODD = "SOe_even_odd"
    SP_R = "Sp2nR"
    SP_PQ = "SpPQ"
    SO_EVEN_EVEN = "SOe_even_even"
    SO_STAR = "SOstar"

    # The members are singletons that compare by identity, so they hash by
    # it too, in C, where Enum.__hash__ hashes the name in Python.
    __hash__ = object.__hash__


class GroupId(Value):
    """One classical real form; (p, q) parameters, or n stored as p (q = 0)."""

    __slots__ = _fields = ("family", "p", "q")

    def __init__(self, family: Family, p: int, q: int = 0):
        ok = {
            Family.SU: p >= 1 and q >= 1,
            Family.SO_EVEN_ODD: p >= 1 and q >= 0,
            Family.SP_R: p >= 1 and q == 0,
            Family.SP_PQ: p >= 1 and q >= 1,
            Family.SO_EVEN_EVEN: p >= 1 and q >= 1,
            Family.SO_STAR: p >= 1 and q == 0,
        }[family]
        if not ok:
            raise IllegalParams(f"illegal parameters ({p},{q}) for {family.value}")
        super().__init__(family, p, q)

    @classmethod
    def su(cls, p: int, q: int) -> "GroupId":
        return cls(Family.SU, p, q)

    @classmethod
    def so_even_odd(cls, p: int, q: int) -> "GroupId":
        """SO_e(2p, 2q+1); q = 0 is allowed."""
        return cls(Family.SO_EVEN_ODD, p, q)

    @classmethod
    def sp_r(cls, n: int) -> "GroupId":
        return cls(Family.SP_R, n, 0)

    @classmethod
    def sp_pq(cls, p: int, q: int) -> "GroupId":
        return cls(Family.SP_PQ, p, q)

    @classmethod
    def so_even_even(cls, p: int, q: int) -> "GroupId":
        return cls(Family.SO_EVEN_EVEN, p, q)

    @classmethod
    def so_star(cls, n: int) -> "GroupId":
        return cls(Family.SO_STAR, n, 0)

    @property
    def n(self) -> int:
        return self.p

    @property
    def rank(self) -> int:
        return self.p + self.q

    def label(self) -> str:
        p, q = self.p, self.q
        return {
            Family.SU: f"SU({p},{q})",
            Family.SO_EVEN_ODD: f"SOe({2 * p},{2 * q + 1})",
            Family.SP_R: f"Sp({2 * p},R)",
            Family.SP_PQ: f"Sp({p},{q})",
            Family.SO_EVEN_EVEN: f"SOe({2 * p},{2 * q})",
            Family.SO_STAR: f"SO*({2 * p})",
        }[self.family]


class Block(Value):
    """A contiguous run of coordinates carrying one irreducible root block."""

    # kind is 'A', 'B', 'C' or 'D'
    __slots__ = _fields = ("kind", "start", "size")
    # (a, b) by kind: the product of the primitive forms of the positive
    # roots of a block of size m is the alternant det(x_i^{e_j}) with
    # e_j = a (m - 1 - j) + b, j = 0..m-1 (weylaction.weyl_dim_poly): a = 2
    # pairs x_i - x_j with x_i + x_j into x_i^2 - x_j^2, and b = 1 adds the
    # factor x_i of each coordinate.
    ALTERNANT = {"A": (1, 0), "B": (2, 1), "C": (2, 1), "D": (2, 0)}

    @property
    def indices(self) -> range:
        return range(self.start, self.start + self.size)

    @property
    def exponents(self) -> list[int]:
        """The column exponents e_j of the block's alternant."""
        a, b = self.ALTERNANT[self.kind]
        return [a * (self.size - 1 - j) + b for j in range(self.size)]

    @property
    def root_count(self) -> int:
        """The number of positive roots, the degree of the alternant:
        m(m-1)/2 in type A, m^2 in types B and C, m(m-1) in type D."""
        return sum(self.exponents)

    def weyl_order(self) -> int:
        m = self.size
        if m == 0:
            return 1
        if self.kind == "A":
            return math.factorial(m)
        if self.kind in ("B", "C"):
            return (2**m) * math.factorial(m)
        if self.kind == "D":
            return (2 ** max(m - 1, 0)) * math.factorial(m)
        raise ValueError(f"unknown block kind {self.kind!r}")


# Lattice predicates on integer forms; den need not be the least one.
def _lattice_integral(den: int, nums: tuple[int, ...]) -> bool:
    return den == 1 or not any(map(mod, nums, repeat(den)))


def _lattice_integral_differences(den: int, nums: tuple[int, ...]) -> bool:
    return den == 1 or not nums or not any(map(mod, map(sub, nums, repeat(nums[0])), repeat(den)))


class RootDatum(Value):
    """The roots of G and K in the ambient coordinates and the lattice
    predicate; data are equal when all of these are, and hash as their
    group."""

    # pos_roots holds (root, compact?) pairs; lattice(den, nums) tells
    # whether the weight nums / den is in the lattice Lambda.  Lambda must
    # be a W_g-stable subgroup: kmodules and dirac decide whether gamma + mu
    # lies on Lambda + rho_g by testing gamma and mu apart, and w(lam + mu)
    # by testing w lam and mu.  The lattice of a finite cover holds the root
    # lattice, so Lambda + rho_g is W_g-stable and k_type_sum's dominant
    # representatives stay on it; a predicate that rejects a positive root
    # is refused when the datum is built.
    _fields = (
        "group", "rank", "pos_roots", "rho_g", "rho_k", "ambient", "compact_blocks", "lattice"
    )

    def __init__(self, group, rank, pos_roots, rho_g, rho_k, ambient, compact_blocks, lattice):
        for root, _ in pos_roots:
            if not lattice(1, root):
                raise OffLattice(f"the lattice must hold every root; it rejects {root}")
        super().__init__(group, rank, pos_roots, rho_g, rho_k, ambient, compact_blocks, lattice)

    def __hash__(self) -> int:
        return hash(self.group)

    @cached_property
    def positive_roots(self) -> tuple[Root, ...]:
        return tuple(r for r, _ in self.pos_roots)

    @cached_property
    def compact_positive_roots(self) -> tuple[Root, ...]:
        return tuple(r for r, c in self.pos_roots if c)

    @cached_property
    def noncompact_positive_roots(self) -> tuple[Root, ...]:
        return tuple(r for r, c in self.pos_roots if not c)

    @cached_property
    def rho_g_form(self) -> IntWeight:
        return int_form(self.rho_g)

    @cached_property
    def rho_k_form(self) -> IntWeight:
        return int_form(self.rho_k)

    @property
    def r_g(self) -> int:
        return len(self.pos_roots)

    @property
    def r_k(self) -> int:
        return len(self.compact_positive_roots)

    def form(self, w: Weight) -> IntWeight:
        """int_form(w), for a weight w whose length is the rank."""
        if len(w) != self.rank:
            raise DimensionMismatch(f"weight length {len(w)} != rank {self.rank}")
        return int_form(w)

    def on_shifted_lattice_form(self, form: IntWeight) -> bool:
        """Membership in Lambda + rho_g, the allowed spectral parameters, of
        an integer form of length the rank."""
        (form_den, nums), (rho_den, rho_nums) = form, self.rho_g_form
        den = math.lcm(form_den, rho_den)
        return self.lattice(den, tuple(map(sub, map(mul, nums, repeat(den // form_den)),
                                           map(mul, rho_nums, repeat(den // rho_den)))))

    def is_g_regular(self, lam: Weight) -> bool:
        nums = self.form(lam)[1]
        return all(idot(nums, a) for a in self.positive_roots)

    def is_k_regular(self, lam: Weight) -> bool:
        nums = self.form(lam)[1]
        return all(idot(nums, a) for a in self.compact_positive_roots)


def _block_roots(block: Block, rank: int) -> list[Root]:
    """Positive roots of one block, as ambient-rank integer tuples: e_i - e_j
    and, but in type A, e_i + e_j for each pair i < j, then e_i in type B or
    2e_i in type C for each i.  Each root is set on one zero list and read
    off as a tuple."""
    idx, signed = block.indices, block.kind != "A"
    v = [0] * rank
    roots: list[Root] = []
    for a, i in enumerate(idx):
        v[i] = 1
        for j in idx[a + 1:]:
            v[j] = -1
            roots.append(tuple(v))
            if signed:
                v[j] = 1
                roots.append(tuple(v))
            v[j] = 0
        v[i] = 0
    if block.kind in ("B", "C"):
        c = 1 if block.kind == "B" else 2
        for i in idx:
            v[i] = c
            roots.append(tuple(v))
            v[i] = 0
    return roots


@lru_cache(maxsize=None)
def _family_layout(group: GroupId) -> tuple[Block, tuple[Block, ...]]:
    p, q, r = group.p, group.q, group.rank
    fam = group.family
    if fam == Family.SU:
        return Block("A", 0, r), (Block("A", 0, p), Block("A", p, q))
    if fam == Family.SO_EVEN_ODD:
        return Block("B", 0, r), (Block("D", 0, p), Block("B", p, q))
    if fam == Family.SP_R:
        return Block("C", 0, r), (Block("A", 0, r),)
    if fam == Family.SP_PQ:
        return Block("C", 0, r), (Block("C", 0, p), Block("C", p, q))
    if fam == Family.SO_EVEN_EVEN:
        return Block("D", 0, r), (Block("D", 0, p), Block("D", p, q))
    if fam == Family.SO_STAR:
        return Block("D", 0, r), (Block("A", 0, r),)
    raise IllegalParams(f"unknown family {fam}")


def check_rank(label: str, rank: int, cap: int | None = None) -> None:
    """Refuse a rank, named by label, above the cap: cap when given, else
    DIRAC_MAX_RANK when set, else DEFAULT_RANK_CAP.  The refusal names
    DIRAC_MAX_RANK only when no cap is given, as only then does it count."""
    advice = ""
    if cap is None:
        value = os.environ.get("DIRAC_MAX_RANK")
        try:
            cap = int(value) if value else DEFAULT_RANK_CAP
        except ValueError:
            raise InvalidInput(f"DIRAC_MAX_RANK must be an integer, got {_echo(value)}") from None
        advice = "; set DIRAC_MAX_RANK to raise it"
    if rank > cap:
        raise RankCapExceeded(f"{label} {rank} exceeds cap {cap}{advice}")


def build_root_datum(group: GroupId, max_rank: int | None = None) -> RootDatum:
    """The root datum of the group, with the conventions in the module
    docstring, once its rank passes ``check_rank``; max_rank, when given,
    replaces the cap.  One object per group, whatever the cap."""
    check_rank("rank", group.rank, max_rank)
    return _root_datum(group)


@lru_cache(maxsize=None)
def _root_datum(group: GroupId) -> RootDatum:
    rank = group.rank
    ambient, compact_blocks = _family_layout(group)
    all_roots = _block_roots(ambient, rank)
    compact_set = set()
    for blk in compact_blocks:
        compact_set.update(_block_roots(blk, rank))
    pos_roots = tuple((root, root in compact_set) for root in all_roots)
    # Half the root sums: one integer sum per coordinate, halved once.
    rho_g = tuple(Fraction(sum(col), 2) for col in zip((0,) * rank, *all_roots))
    rho_k = tuple(Fraction(sum(col), 2) for col in zip((0,) * rank, *compact_set))
    lattice = (
        _lattice_integral_differences if group.family == Family.SU else _lattice_integral
    )
    return RootDatum(
        group=group,
        rank=rank,
        pos_roots=pos_roots,
        rho_g=rho_g,
        rho_k=rho_k,
        ambient=ambient,
        compact_blocks=compact_blocks,
        lattice=lattice,
    )


class WeylElement(Value):
    """Signed permutation; (w.lam)_i = signs[i] * lam[perm[i]]."""

    __slots__ = _fields = ("perm", "signs")

    @classmethod
    def identity(cls, rank: int) -> "WeylElement":
        return cls(tuple(range(rank)), (1,) * rank)

    def apply(self, w: Weight) -> Weight:
        if len(w) != len(self.perm):
            raise DimensionMismatch("weight length does not match Weyl element")
        return tuple(map(mul, self.signs, map(w.__getitem__, self.perm)))

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self o other: apply ``other`` first, then ``self``."""
        if len(other.perm) != len(self.perm):
            raise DimensionMismatch("Weyl elements of different lengths do not compose")
        perm = tuple(other.perm[p] for p in self.perm)
        signs = tuple(s * other.signs[p] for p, s in zip(self.perm, self.signs))
        return WeylElement(perm, signs)

    def inverse(self) -> "WeylElement":
        n = len(self.perm)
        inv_perm = [0] * n
        inv_signs = [1] * n
        for i, p in enumerate(self.perm):
            inv_perm[p] = i
            inv_signs[p] = self.signs[i]
        return WeylElement(tuple(inv_perm), tuple(inv_signs))

    def sign(self) -> int:
        """(-1)^(inversions of perm) times the product of the signs."""
        perm = self.perm
        inversions = sum([sum(map(gt, perm[:i], repeat(a))) for i, a in enumerate(perm)])
        return (-1) ** inversions * math.prod(self.signs)


def reflection(alpha: Weight) -> WeylElement:
    """The reflection s_alpha, for alpha of the form +-e_i +- e_j or (2)e_i."""
    rank = len(alpha)
    support = [i for i, c in enumerate(alpha) if c != 0]
    perm = list(range(rank))
    signs = [1] * rank
    if len(support) == 1:
        signs[support[0]] = -1
    elif len(support) == 2:
        i, j = support
        perm[i], perm[j] = j, i
        if alpha[i] * alpha[j] > 0:  # e_i + e_j: swap and flip both signs
            signs[i] = signs[j] = -1
    else:
        raise ValueError("reflection only implemented for classical root shapes")
    return WeylElement(tuple(perm), tuple(signs))


def _block_moves(block: Block) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (images, signs) pairs of the block's Weyl group on its own
    coordinates, as ambient indices: every permutation, each with no sign
    change in type A, every sign pattern in B and C, and an even number of
    -1 in D."""
    m = block.size
    patterns = [(1,) * m] if block.kind == "A" else list(product((1, -1), repeat=m))
    if block.kind == "D":
        patterns = [s for s in patterns if s.count(-1) % 2 == 0]
    return [(images, signs) for images in permutations(block.indices) for signs in patterns]


def weyl_order(datum: RootDatum, which: str = "g") -> int:
    if which not in ("g", "k"):
        raise ValueError("which must be 'g' or 'k'")
    blocks = (datum.ambient,) if which == "g" else datum.compact_blocks
    return math.prod(b.weyl_order() for b in blocks)


def _enumerable_order(datum: RootDatum, which: str = "g") -> int:
    """weyl_order(datum, which), for a group to be listed element by
    element: past DEFAULT_WEYL_CAP it raises EnumerationCapExceeded."""
    order = weyl_order(datum, which)
    if order > DEFAULT_WEYL_CAP:
        raise EnumerationCapExceeded(f"|W| = {order} exceeds cap {DEFAULT_WEYL_CAP}")
    return order


def weyl_elements(datum: RootDatum, which: str = "g") -> tuple[WeylElement, ...]:
    """Complete, duplicate-free list of W_g or W_k as signed permutations,
    the first block's moves outermost; a group past DEFAULT_WEYL_CAP
    elements raises EnumerationCapExceeded before any is built."""
    order = _enumerable_order(datum, which)
    blocks = (datum.ambient,) if which == "g" else datum.compact_blocks
    elems = []
    for moves in product(*map(_block_moves, blocks)):
        images, signs = zip(*moves)
        elems.append(WeylElement(sum(images, ()), sum(signs, ())))
    if len(set(elems)) != order:
        raise InternalInvariantError(
            f"enumerated {len(set(elems))} distinct Weyl elements, expected {order}"
        )
    return tuple(elems)


@lru_cache(maxsize=None)
def simple_roots(datum: RootDatum) -> tuple[Root, ...]:
    """The positive roots alpha with <rho_g, alpha^vee> = 1, in the order of
    the positive roots: a positive root is simple exactly when its coroot
    pairs to 1 with rho_g (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 10.2 and 13.3).  With rho_g = nums / den that
    is 2 (nums, alpha) = den (alpha, alpha), one integer test per root."""
    den, rho = datum.rho_g_form
    return tuple(alpha for alpha in datum.positive_roots
                 if 2 * idot(rho, alpha) == den * idot(alpha, alpha))


def _chamber_block(kind: str, entries) -> tuple[list, list, int]:
    """(keys, ranked, negatives) for the entries of one block: the sort keys
    (the entries in A, their absolute values in B, C and D), the dominant
    representative's entries (the keys in descending order) and the count
    of negative entries (0 in A).  D flips signs in pairs, so an odd count
    negates the last slot, which is a no-op on a zero."""
    if kind == "A":
        return entries, sorted(entries, reverse=True), 0
    keys = [abs(c) for c in entries]
    ranked = sorted(keys, reverse=True)
    negatives = sum(map(ne, entries, keys))  # c != |c| exactly when c < 0
    if kind == "D" and negatives % 2:
        ranked[-1] = -ranked[-1]
    return keys, ranked, negatives


def _signed_dominant(blocks: tuple[Block, ...], gamma: Weight) -> tuple[int, Weight] | None:
    """(sign(x), x.gamma) for the x in the Weyl group of the blocks with
    x.gamma dominant, or None when gamma is singular for the roots of the
    blocks; the caller has checked the length.

    Works blockwise on the entries (`_chamber_block`), without building x.
    The sort keys must be distinct, and nonzero in B and C.  The
    permutation's sign is (-1)^(inversions), the pairs of keys that stand
    in ascending order; B and C add one sign flip per negative entry.  D
    flips signs in pairs, so its sign is the permutation's alone.
    """
    sign, out = 1, []
    for blk in blocks:
        kind = blk.kind
        keys, ranked, negatives = _chamber_block(kind, gamma[blk.start:blk.start + blk.size])
        if len(set(keys)) < len(keys) or (kind in ("B", "C") and 0 in keys):
            return None
        flips = sum([sum(map(lt, keys[:i], repeat(a))) for i, a in enumerate(keys)])
        if kind in ("B", "C"):
            flips += negatives
        if flips % 2:
            sign = -sign
        out += ranked
    return sign, tuple(out)


def normalize_k_dominant(
    datum: RootDatum, gamma: Weight
) -> tuple[int, Weight] | None:
    """Unique (sign(x), x.gamma) with x in W_k and x.gamma strictly k-dominant;
    None when gamma is singular for some compact root.  gamma may also be
    the numerators of an integer form."""
    if len(gamma) != datum.rank:
        raise DimensionMismatch(f"weight length {len(gamma)} does not match the blocks")
    return _signed_dominant(datum.compact_blocks, gamma)

"""Galois conjugation of monodromy data, in both senses.

Naive conjugation applies a field automorphism to matrix entries; transport
acts through the connection side on residue data, where it fixes every
rational residue.  Keeping both makes the difference between the two actions
an executable fact.  The torsion verdict combines rigidity with
quasi-unipotence of the determinant and of all local eigenvalues.
"""
from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import GaloisElement, galois_apply, galois_group, root_of_unity_order
from .errors import Indeterminate, ShapeError
from .linalg import Matrix
from .monodromy import EigenData, MonodromyTuple, rank2_classify
from .residues import ResidueData


@dataclass(frozen=True)
class AbsoluteVerdict:
    """Torsion characterization of a candidate absolute point: rigid with
    quasi-unipotent determinant and local monodromy."""

    is_rigid: bool
    det_torsion: bool
    mon_torsion: bool
    verdict: str  # "absolute-point-candidate" | "not-absolute"


def conjugate_tuple_naive(t: MonodromyTuple, g: GaloisElement) -> MonodromyTuple:
    """Entry-wise field automorphism; the product relation is preserved."""
    mats = tuple(Matrix(m.rows, m.cols,
                        tuple(galois_apply(v, g) for v in m.entries))
                 for m in t.matrices)
    return MonodromyTuple(t.rank, t.punctures, mats)


def transport_residues(rd: ResidueData, g: GaloisElement) -> ResidueData:
    """Transport along the connection side fixes rational residue data: the
    conjugated connection has residues sigma(a) = a, so the output equals the
    input.  The operation exists to make that invariance checkable."""
    del g
    return rd


def galois_orbit_eigen(e: EigenData) -> set[EigenData]:
    """Orbit of eigenvalue data under all automorphisms of its field.

    zeta_n -> zeta_n^k acts on a value at conductor m through k mod m alone,
    so each distinct value is conjugated once per residue and a rational
    value never; each value is hashed once, to find where it recurs.
    """
    n = e.conductor()
    if n == 1:
        return {e}
    index = {}
    slots = [[index.setdefault(v, len(index)) for v in pt] for pt in e.points]
    images = [{} for _ in index]  # per distinct value: k mod its conductor -> image
    orbit = set()
    for g in galois_group(n):
        conj = []
        for v, seen in zip(index, images):
            k = g.exponent % v.conductor
            if k not in seen:
                seen[k] = galois_apply(v, g) if v.conductor > 1 else v
            conj.append(seen[k])
        orbit.add(EigenData.of([[conj[i] for i in pt] for pt in slots]))
    return orbit


def conjugate_eigen(e: EigenData, g: GaloisElement) -> EigenData:
    """The image of ``e`` under the one automorphism g."""
    return EigenData.of([[galois_apply(v, g) for v in pt] for pt in e.points])


def absolute_point_test(t: MonodromyTuple) -> AbsoluteVerdict:
    """Rank-2 torsion verdict.

    is_rigid comes from the three-non-scalar classification, det_torsion and
    mon_torsion from exact root-of-unity detection.  A tuple whose ``mon``
    has no eigenvalue data is indeterminate, before rigidity or determinants.
    """
    if t.rank != 2:
        raise ShapeError("absolute point test implemented for rank 2")
    data = t.mon_data
    if data.eigen is None:
        raise Indeterminate("local eigenvalues do not split over the working field")
    rigid = t.irreducible and rank2_classify(t).rigid
    det_torsion = all(root_of_unity_order(d) is not None for d in t.dets)
    mon_torsion = all(root_of_unity_order(v) is not None
                      for pt in data.eigen.points for v in pt)
    ok = rigid and det_torsion and mon_torsion
    return AbsoluteVerdict(rigid, det_torsion, mon_torsion,
                           "absolute-point-candidate" if ok else "not-absolute")

"""Polygonal curves and the handful of edits the algorithms need.

A curve is an ordered list of vertices in a common dimension.
Consecutive duplicate vertices are allowed; they arise naturally from
padding and never change any distance. A curve with a single vertex is
degenerate and only tolerated as raw input: curve sets double the
lonely vertex on ingestion so that everything downstream can assume at
least one edge.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Curve",
    "CurveSet",
    "pad_to_complexity",
]


class Curve:
    """A polygonal curve stored as a read-only (m, d) vertex array."""

    __slots__ = ("vertices", "label")

    def __init__(self, vertices, label: str | None = None):
        try:
            v = np.array(vertices, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad vertex data: {exc}") from None
        if v.ndim == 1 and v.size > 0:
            # a bare point is promoted to a one-vertex curve
            v = v[None, :]
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("expected a nonempty sequence of points of equal dimension")
        if not np.isfinite(v).all():
            raise ValueError("vertex coordinates must be finite")
        v.setflags(write=False)
        self.vertices = v
        self.label = label

    def __len__(self) -> int:
        return self.vertices.shape[0]

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    @property
    def start(self) -> np.ndarray:
        return self.vertices[0]

    @property
    def end(self) -> np.ndarray:
        return self.vertices[-1]

    def __repr__(self) -> str:
        tag = f", label={self.label!r}" if self.label is not None else ""
        return f"Curve({len(self)} vertices, d={self.dimension}{tag})"


def _proper(c: Curve) -> Curve:
    # doubling a lonely vertex gives the curve its one (degenerate) edge
    if len(c) >= 2:
        return c
    return Curve(np.repeat(c.vertices, 2, axis=0), label=c.label)


class CurveSet:
    """An indexed family of curves sharing one ambient dimension."""

    __slots__ = ("curves",)

    def __init__(self, curves):
        cs = [c if isinstance(c, Curve) else Curve(c) for c in curves]
        if not cs:
            raise ValueError("a curve set needs at least one curve")
        d = cs[0].dimension
        for c in cs:
            if c.dimension != d:
                raise ValueError(f"mixed dimensions: {c.dimension} vs {d}")
        self.curves = [_proper(c) for c in cs]

    def __len__(self) -> int:
        return len(self.curves)

    def __iter__(self):
        return iter(self.curves)

    def __getitem__(self, i):
        return self.curves[i]

    @property
    def dimension(self) -> int:
        return self.curves[0].dimension


def pad_to_complexity(curve: Curve, m: int) -> Curve:
    """Clone the first vertex until the curve has exactly ``m`` vertices.

    Padding never moves the curve: the clones all sit on the original
    start point, so every distance to and from the padded curve is
    unchanged. A curve already longer than ``m`` is rejected.
    """
    have = len(curve)
    if have > m:
        raise ValueError(f"cannot pad {have} vertices down to {m}")
    if have == m:
        return curve
    pad = np.repeat(curve.vertices[:1], m - have, axis=0)
    return Curve(np.vstack([pad, curve.vertices]), label=curve.label)


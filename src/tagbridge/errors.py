"""Exception types shared across the toolkit.

An invalid argument (a wrong shape, type or range, an unknown id) raises
ValueError. The classes here, TagbridgeError and its subclasses, report input
that is well formed but cannot support a result: degenerate geometry, too few
rays, views or pairs, no anchor, a singular system, a reflection, no common
ids.
"""


class TagbridgeError(Exception):
    """Base class for all toolkit errors."""


class InsufficientObservations(TagbridgeError):
    """Fewer than two rays/observations for a triangulation target."""

    def __init__(self, tag_id, n):
        self.tag_id = tag_id
        self.n = n
        super().__init__(f"tag {tag_id}: {n} observation(s), need at least 2")


class DegenerateGeometry(TagbridgeError):
    """Geometry does not constrain the solution (parallel rays, collinear points, ...)."""


class TooFewCorrespondences(TagbridgeError):
    """Rigid-transform estimation needs at least three point pairs."""


class ReflectionRequired(TagbridgeError):
    """Correspondences are best explained by a reflection; data is corrupt."""


class GaugeNotFixed(TagbridgeError):
    """Bundle problem frees all poses without anchoring any."""


class Underconstrained(TagbridgeError):
    """A free point is observed in fewer than two images."""

    def __init__(self, point_id, n_images):
        self.point_id = point_id
        super().__init__(f"point {point_id!r} seen in {n_images} image(s), need at least 2")


class SingularNormalEquations(TagbridgeError):
    """Damped normal equations could not be solved."""


class NoCommonIds(TagbridgeError):
    """Estimated and truth point sets share no ids."""

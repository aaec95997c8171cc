"""Exception types shared across the toolkit.

Every error derives from TagbridgeError; callers catch the classes directly.
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


class MissingPose(TagbridgeError):
    """An observation references an image id with no known pose."""

    def __init__(self, image_id):
        self.image_id = image_id
        super().__init__(f"no pose for image id {image_id!r}")


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


class ImageTooSmall(TagbridgeError):
    """Image smaller than the census window."""


class DimensionMismatch(TagbridgeError):
    """Raster dimensions disagree."""


class InvalidSpec(TagbridgeError):
    """A synthetic scene specification violates its constraints."""


class NoCommonIds(TagbridgeError):
    """Estimated and truth point sets share no ids."""

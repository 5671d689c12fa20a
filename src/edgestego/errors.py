"""Exception hierarchy for the edgestego library."""


class StegoError(Exception):
    """Base class for all edgestego errors.

    ``exit_code`` (1 usage, 3 image format, 4 capacity, 5 extraction/header)
    and the one-line ``remedy`` are what the CLI reports; subclasses inherit both.
    """

    exit_code = 3
    remedy: str | None = None


class MalformedFile(StegoError):
    """The input bytes are not a structurally valid BMP file."""

    remedy = "the input is not a readable BMP file; check the path and file contents"


class UnsupportedFormat(StegoError):
    """Not 24-bit BI_RGB without palette or alpha, as a BMP file or as in-memory pixels."""

    remedy = "re-save the image as an uncompressed 24-bit BMP without palette or alpha"


class ZeroDimension(StegoError):
    """Image width or height is zero."""

    remedy = "the image has no pixels; supply a real image"


class ParamOutOfRange(StegoError):
    """Detector parameter outside its allowed range."""

    exit_code = 1
    remedy = "use --sigma 1.0..3.0 and thresholds 0..255 with low <= high"


class ImageTooSmall(StegoError):
    """Image smaller than the 3x3 minimum the detector needs."""

    remedy = "the detector needs at least a 3x3 image"


class ImageTooNarrow(StegoError):
    """Image narrower than the 27 pixels the header row needs."""

    remedy = "the header row needs 27 pixels; use an image at least 27 wide"


class CapacityExceeded(StegoError):
    """Payload does not fit in the pixels selected by the detector."""

    exit_code = 4
    remedy = "use a smaller payload, a busier image, or lower thresholds"

    def __init__(self, required: int, available: int):
        self.required = required
        self.available = available
        super().__init__(
            f"payload needs {required} bytes but the image can hold {available}"
        )


class BadMagic(StegoError):
    """The image does not carry an embedded header."""

    exit_code = 5
    remedy = "this image carries no embedded header; check you have the right file"


class UnsupportedVersion(StegoError):
    """The embedded header declares a format version this library cannot read."""

    exit_code = 5
    remedy = "the carrier was made by a newer tool version; upgrade"


class CorruptHeader(StegoError):
    """The embedded header carries out-of-range parameter fields."""

    exit_code = 5
    remedy = "the header bits are damaged; the carrier was modified in transit"


class TruncatedPayload(StegoError):
    """The declared payload length exceeds what the carrier can hold."""

    exit_code = 5
    remedy = "the carrier was altered or this is not the embedded image"


class DimensionMismatch(StegoError):
    """Two images that must share dimensions do not."""

    remedy = "compare two images of the same width and height"

"""Brute-force reference implementations used to cross-check the pipeline.

Everything here is deliberately naive: scalar loops, direct definitions,
fixpoint iteration. None of it shares code with the package, so agreement
between the two is meaningful evidence.
"""

import math

import numpy as np
from scipy import ndimage


def masked_gray_reference(r, g, b):
    """Scalar luminance of one pixel after zeroing the three payload bits."""
    luma = 0.299 * (r & 0xF8) + 0.587 * (g & 0xF8) + 0.114 * (b & 0xF8)
    return int(math.floor(luma + 0.5))


def gaussian_taps(sigma):
    """1-D Gaussian taps built with plain math.exp, radius ceil(3*sigma)."""
    radius = math.ceil(3.0 * sigma)
    taps = [math.exp(-(i * i) / (2.0 * sigma * sigma)) for i in range(-radius, radius + 1)]
    total = sum(taps)
    return [t / total for t in taps]


def smooth_reference(values, sigma):
    """Direct 2-D convolution with the separable kernel's outer product.

    Borders clamp to the nearest pixel; the float accumulator is rounded
    half-up once at the end. Summation order differs from a separable
    implementation, so comparisons should allow a +/-1 slack.
    """
    taps = gaussian_taps(sigma)
    radius = len(taps) // 2
    height, width = values.shape
    out = np.zeros((height, width), dtype=np.uint8)
    for y in range(height):
        for x in range(width):
            acc = 0.0
            for dy in range(-radius, radius + 1):
                sy = min(max(y + dy, 0), height - 1)
                for dx in range(-radius, radius + 1):
                    sx = min(max(x + dx, 0), width - 1)
                    acc += taps[dy + radius] * taps[dx + radius] * float(values[sy, sx])
            out[y, x] = min(max(int(math.floor(acc + 0.5)), 0), 255)
    return out


def _correlate1d_clamped(values, kernel, axis):
    """One clamp-to-edge correlation pass, summing the taps in kernel order."""
    length = values.shape[axis]
    radius = len(kernel) // 2
    index = np.arange(length)
    out = np.zeros_like(values)
    for tap, coeff in enumerate(kernel):
        source = np.clip(index + (tap - radius), 0, length - 1)
        out += coeff * np.take(values, source, axis=axis)
    return out


def separable_sums(values, kernel):
    """The smoothing sums before rounding, in the kernel's float type.

    Horizontal pass, then vertical pass, each a sum over the taps in kernel
    order starting from 0.0. With a float64 kernel these are the sums that
    define the detector's smoothing; with the same taps cast to float32 they
    are the plain float32 evaluation of the same expression.
    """
    acc = _correlate1d_clamped(values.astype(kernel.dtype), kernel, axis=1)
    return _correlate1d_clamped(acc, kernel, axis=0)


def _banded(kernel, n):
    """The (n + 2 * radius) x n matrix whose column i holds the taps from row i on."""
    matrix = np.zeros((n + len(kernel) - 1, n), dtype=kernel.dtype)
    for i in range(n):
        matrix[i : i + len(kernel), i] = kernel
    return matrix


def matmul_sums(values, kernel):
    """The smoothing sums as one banded matrix product per pass, whole image at once.

    The image is edge-padded by the radius; the horizontal pass multiplies
    it by a matrix with the taps down its diagonals, the vertical pass
    multiplies the transposed matrix by the row sums. Whatever BLAS kernel
    numpy uses adds the products in its own order, over the full width and
    height: a blocking unlike the detector's. With float32 taps this is
    another float32 evaluation of the same expression.
    """
    height, width = values.shape
    padded = np.pad(values, len(kernel) // 2, mode="edge").astype(kernel.dtype)
    return _banded(kernel, height).T @ (padded @ _banded(kernel, width))


def smooth_separable_reference(values, kernel):
    """The detector's smoothing written out plainly: an exact reference.

    The float64 ``separable_sums``, rounded half up and clipped to 0..255.
    Any implementation that computes the same sums in the same order gives
    the same bytes; a reordered sum can differ by one gray level. The taps
    come from the caller (a row of the package's frozen tap table), so this
    checks the summation, not the kernel.
    """
    acc = separable_sums(values, kernel)
    return np.clip(np.floor(acc + 0.5), 0, 255).astype(np.uint8)


_SOBEL_X = ((-1, 0, 1), (-2, 0, 2), (-1, 0, 1))
_SOBEL_Y = ((1, 2, 1), (0, 0, 0), (-1, -2, -1))  # positive response to brighter top


def sobel_reference(values):
    """Per-pixel 3x3 correlation with clamp-to-edge borders."""
    height, width = values.shape
    gx = np.zeros((height, width), dtype=np.int64)
    gy = np.zeros((height, width), dtype=np.int64)
    for y in range(height):
        for x in range(width):
            ax = ay = 0
            for dy in (-1, 0, 1):
                sy = min(max(y + dy, 0), height - 1)
                for dx in (-1, 0, 1):
                    sx = min(max(x + dx, 0), width - 1)
                    v = int(values[sy, sx])
                    ax += _SOBEL_X[dy + 1][dx + 1] * v
                    ay += _SOBEL_Y[dy + 1][dx + 1] * v
            gx[y, x] = ax
            gy[y, x] = ay
    return gx, gy


def direction_reference(gx, gy):
    """Scalar atan2 binning to the nearest of 0/45/90/135 degrees."""
    height, width = gx.shape
    bins = np.zeros((height, width), dtype=np.uint8)
    for y in range(height):
        for x in range(width):
            angle = math.degrees(math.atan2(gy[y, x], gx[y, x])) % 180.0
            if 22.5 <= angle < 67.5:
                bins[y, x] = 45
            elif 67.5 <= angle < 112.5:
                bins[y, x] = 90
            elif 112.5 <= angle < 157.5:
                bins[y, x] = 135
    return bins


# Neighbor pairs per direction bin, as (dx, dy) with y growing downward.
# The gradient points across the edge, so these are the two pixels the
# candidate must dominate.
_NMS_NEIGHBORS = {
    0: ((-1, 0), (1, 0)),      # horizontal gradient: left / right
    45: ((1, -1), (-1, 1)),    # up-right / down-left
    90: ((0, -1), (0, 1)),     # vertical gradient: up / down
    135: ((-1, -1), (1, 1)),   # up-left / down-right
}


def rescale_reference(raw):
    """255 * raw / peak rounded half up to uint8, peak the maximum (1 if all zero).

    The integer form (510 raw + peak) // (2 peak) is exact rounding; a test
    in test_canny.py checks it against rational arithmetic.
    """
    raw = np.asarray(raw, dtype=np.int64)
    peak = max(int(raw.max()), 1)
    return ((510 * raw + peak) // (2 * peak)).astype(np.uint8)


def nms_reference(magnitude, direction):
    """Exhaustive non-maximum suppression; out-of-bounds neighbors count as 0."""
    height, width = magnitude.shape
    out = np.zeros_like(magnitude)
    for y in range(height):
        for x in range(width):
            keep = True
            for dx, dy in _NMS_NEIGHBORS[int(direction[y, x])]:
                ny, nx = y + dy, x + dx
                other = magnitude[ny, nx] if 0 <= ny < height and 0 <= nx < width else 0
                if magnitude[y, x] < other:
                    keep = False
            if keep:
                out[y, x] = magnitude[y, x]
    return out


def hysteresis_reference(thinned, low, high):
    """Double threshold plus edge linking, by relaxation to a fixpoint.

    Start from the strong pixels and repeatedly absorb any candidate
    (magnitude >= low) that touches the current set 8-connectedly, until
    nothing changes.
    """
    height, width = thinned.shape
    candidate = thinned >= low
    result = thinned >= high
    changed = True
    while changed:
        changed = False
        for y in range(height):
            for x in range(width):
                if not candidate[y, x] or result[y, x]:
                    continue
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if (dy or dx) and 0 <= ny < height and 0 <= nx < width and result[ny, nx]:
                            result[y, x] = True
                            changed = True
                            break
                    if result[y, x]:
                        break
    return result


def count_components(membership):
    """Number of 8-connected components of true cells, by flood fill."""
    height, width = membership.shape
    seen = np.zeros((height, width), dtype=bool)
    count = 0
    for y in range(height):
        for x in range(width):
            if not membership[y, x] or seen[y, x]:
                continue
            count += 1
            stack = [(y, x)]
            seen[y, x] = True
            while stack:
                cy, cx = stack.pop()
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = cy + dy, cx + dx
                        if 0 <= ny < height and 0 <= nx < width:
                            if membership[ny, nx] and not seen[ny, nx]:
                                seen[ny, nx] = True
                                stack.append((ny, nx))
    return count


def hysteresis_dense_reference(thinned, low, high):
    """Double threshold plus edge linking by labelling every candidate.

    Label the 8-connected components of the candidates (magnitude >= low)
    and keep those that hold a strong pixel (magnitude >= high). Unlike
    ``hysteresis_reference`` it runs at full image sizes.
    """
    labels, count = ndimage.label(thinned >= low, np.ones((3, 3), bool))
    keep = np.zeros(count + 1, dtype=bool)
    keep[labels[thinned >= high]] = True  # strong pixels never carry label 0
    return keep[labels]


def fields_reference(data, width, count):
    """``count`` integers of ``width`` bits cut from ``data`` as one MSB-first bit string.

    Bits past the end of ``data`` read as zero.
    """
    bits = "".join(format(byte, "08b") for byte in data).ljust(width * count, "0")
    return [int(bits[i * width:(i + 1) * width], 2) for i in range(count)]


def bytes_from_fields_reference(fields, width, size):
    """The first ``size`` bytes of the low ``width`` bits of each field, MSB first.

    A trailing partial byte is padded with zero bits.
    """
    bits = "".join(format(int(f) % (1 << width), f"0{width}b") for f in fields)
    bits = bits[:8 * size].ljust(8 * size, "0")
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))

"""Counter-based uniform random streams.

Monte Carlo runs over a grid must give the same answer no matter how
pixels are chunked across workers, so draws are a pure function of
(seed, pixel index, plane index, sample index) rather than the state of
a shared generator.  The mapping is the splitmix64 output function
applied to a keyed counter, which is cheap to evaluate for whole blocks
of samples with numpy integer arithmetic.

A "plane" is one independent stream; a neighborhood draw uses one plane
per bounded distribution and two per Gaussian (for the Box-Muller pair).
``stream_keys`` gives each (pixel, plane) stream its key, and
``fill_units`` writes the draws of a batch of streams into caller-owned
buffers, so a kernel that works through small tiles allocates nothing
per tile.  The hash needs one uint64 plane besides the output, and the
output itself serves as the mixer's other operand until the draws
overwrite it; a kernel lends the plane its sampled values go into
next, so drawing costs no memory beyond the uniforms and the samples.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_PIXEL_SALT = np.uint64(0xBF58476D1CE4E5B9)
_PLANE_SALT = np.uint64(0x94D049BB133111EB)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


def _mix(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, in place on the uint64 array ``z``.

    ``tmp`` is scratch of the same shape.  Array arithmetic wraps.
    """
    np.right_shift(z, 30, out=tmp)
    z ^= tmp
    z *= _MIX_1
    np.right_shift(z, 27, out=tmp)
    z ^= tmp
    z *= _MIX_2
    np.right_shift(z, 31, out=tmp)
    z ^= tmp
    return z


def _mixed(z) -> np.ndarray:
    z = np.array(z, dtype=np.uint64)
    return _mix(z, np.empty_like(z))


def stream_keys(seed: int, pixels, planes: int) -> np.ndarray:
    """Stream key of every (pixel, plane) pair, shape (len(pixels), planes)."""
    px = np.asarray(pixels, dtype=np.uint64).reshape(-1)
    with np.errstate(over="ignore"):
        base = _mixed(np.uint64(int(seed) & _MASK) + _GOLDEN)
        per_pixel = _mixed(base ^ (px * _PIXEL_SALT))
        plane_ids = np.arange(planes, dtype=np.uint64)
        return _mixed(per_pixel[:, None] ^ (plane_ids[None, :] * _PLANE_SALT))


def counters(start: int, stop: int) -> np.ndarray:
    """Keyed-counter offsets of sample indices start .. stop - 1."""
    return (np.arange(start, stop, dtype=np.uint64) + np.uint64(1)) * _GOLDEN


def fill_units(keys: np.ndarray, ctr: np.ndarray, out: np.ndarray, z: np.ndarray) -> None:
    """Write the draws of streams ``keys`` (k,) at ``ctr`` (n,) into ``out`` (k, n).

    The hash runs in ``z``, any uint64 (k, n) plane that does not overlap
    ``out``, and is left holding the shifted hash.  ``out``'s bits are
    the mixer's scratch until the draws overwrite them.  Every step runs
    in place, so nothing is allocated.
    """
    np.add(keys[:, None], ctr, out=z)
    _mix(z, out.view(np.uint64))
    z >>= 11
    # below 2**53 now, so the signed conversion is exact and faster
    np.multiply(z.view(np.int64), _INV_2_53, out=out)


def unit_block(seed: int, pixels, planes: int, n: int) -> np.ndarray:
    """Uniform [0, 1) draws of shape (len(pixels), planes, n).

    ``pixels`` is an integer array of pixel indices; scalar callers pass
    a length-1 array and drop the first axis.  Draws for a given
    (seed, pixel, plane, i) never depend on the rest of the block.  The
    block is filled plane by plane, each plane contiguous, and returned
    as a view with the pixel axis first: the mixer is about twice as slow
    on the strided (pixels, n) slice of a pixel-major block.
    """
    keys = stream_keys(seed, pixels, planes)
    ctr = counters(0, n)
    out = np.empty((planes, keys.shape[0], n))
    z = np.empty((keys.shape[0], n), dtype=np.uint64)
    for q in range(planes):
        fill_units(keys[:, q], ctr, out[q], z)
    return out.transpose(1, 0, 2)


"""Golden vectors for the attack generator and the attacked images, and
checks of the attacks module's other claims.

The attacks module promises attacked datasets that stay bit-identical
across library versions.  Golden values pin that promise: SplitMix64's
published reference outputs, and the sha256 of apply_patches' output for
the black, flip and random kinds on a fixed image built from integers
alone (no random generator whose stream could change).  The other tests
check that pixels outside the patch region are never touched, that the
adversarial kind is a nearest-neighbor resize of its patch, and that bad
arguments raise typed errors.
"""

import hashlib

import numpy as np
import pytest

from roictx.attacks import KINDS, SplitMix64, apply_patch, apply_patches, \
    patch_region, region_pixel_window
from roictx.errors import DegenerateBoxError, ShapeError
from roictx.geometry import Box

# Vigna's reference outputs of splitmix64 seeded with 1234567.
SPLITMIX64_1234567 = [6457827717110365317, 3203168211198807973,
                      9817491932198370423, 4593380528125082431,
                      16408922859458223821]

# Three boxes: the flip axes drawn are both, horizontal and both, and
# every random patch finds a source window.
BOXES = [Box(2.0, 3.0, 12.0, 11.0), Box(17.5, 6.25, 29.0, 20.75),
         Box(-3.0, 15.0, 7.0, 26.0)]
SEED = 20240607

DIGESTS = {
    "black": "f31cb171ac896fbe83cc5438cb360bfe9b119b25c7d5bec896b0c2ee3821a98f",
    "flip": "93112749317f5b407de9719e6af96ac85650a2f09023da050a878c14b7791509",
    "random": "fd720f6a24c7bbfa4e2ea746b1b362f4b60015b96538e92bf6be54a719810e99",
}

# One box covering most of the image: no source window fits outside it,
# so the random kind falls back to black.
RANDOM_FALLBACK_DIGEST = (
    "938a52cf973b5e0f6b9359eb195ba419beda8165cd6f26d1a018263af3b4e9ea")


def golden_image():
    C, H, W = 3, 24, 32
    codes = (np.arange(C * H * W, dtype=np.int64) * 2654435761) % 1009
    return codes.astype(np.float32).reshape(C, H, W) / 8.0


def digest(arr):
    assert arr.dtype == np.float32 and arr.shape == (3, 24, 32)
    return hashlib.sha256(arr.tobytes()).hexdigest()


def test_splitmix64_reference_values():
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(5)] == SPLITMIX64_1234567


@pytest.mark.parametrize("kind", sorted(DIGESTS))
def test_apply_patches_golden_digest(kind):
    image = golden_image()
    out = apply_patches(image, BOXES, kind, SEED)
    assert digest(out) == DIGESTS[kind]
    assert digest(image) == digest(golden_image())


def test_random_black_fallback_golden_digest():
    out = apply_patches(golden_image(), [Box(1.0, 1.0, 31.0, 23.0)],
                        "random", SEED)
    assert digest(out) == RANDOM_FALLBACK_DIGEST


def adversarial_patch():
    return (np.arange(3 * 5 * 7, dtype=np.float32).reshape(3, 5, 7) - 50.0) / 4.0


def nearest_oracle(patch, out_h, out_w):
    """Output pixel (i, j) takes patch pixel (floor(i h / out_h),
    floor(j w / out_w)), written out pixel by pixel."""
    c, h, w = patch.shape
    out = np.empty((c, out_h, out_w), dtype=np.float32)
    for i in range(out_h):
        for j in range(out_w):
            out[:, i, j] = patch[:, i * h // out_h, j * w // out_w]
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_pixels_outside_region_untouched(kind):
    image = golden_image()
    for gt in BOXES + [Box(1.0, 1.0, 31.0, 23.0)]:
        out = apply_patch(image, gt, kind, SEED, adversarial_patch())
        y0, y1, x0, x1 = region_pixel_window(patch_region(gt), 24, 32)
        outside = np.ones((24, 32), dtype=bool)
        outside[y0:y1, x0:x1] = False
        assert outside.sum() < 24 * 32
        assert out[:, outside].tobytes() == image[:, outside].tobytes()


def test_adversarial_equals_nearest_neighbor_oracle():
    image = golden_image()
    patch = adversarial_patch()
    for gt in BOXES + [Box(1.0, 1.0, 31.0, 23.0)]:
        out = apply_patch(image, gt, "adversarial", SEED, patch)
        y0, y1, x0, x1 = region_pixel_window(patch_region(gt), 24, 32)
        want = nearest_oracle(patch, y1 - y0, x1 - x0)
        assert out[:, y0:y1, x0:x1].tobytes() == want.tobytes()


def test_adversarial_without_patch_rejected():
    with pytest.raises(ValueError, match="patch"):
        apply_patch(golden_image(), BOXES[0], "adversarial", SEED)


def test_patch_with_wrong_channel_count_rejected():
    with pytest.raises(ShapeError):
        apply_patch(golden_image(), BOXES[0], "adversarial", SEED,
                    adversarial_patch()[:2])


@pytest.mark.parametrize("shape", [(3, 0, 4), (3, 5, 0), (3, 0, 0)])
def test_patch_of_zero_extent_rejected(shape):
    """A patch with no rows or no columns has no pixel to resize from."""
    with pytest.raises(ShapeError, match="incompatible"):
        apply_patch(golden_image(), BOXES[0], "adversarial", SEED,
                    np.zeros(shape, dtype=np.float32))


@pytest.mark.parametrize("kind", KINDS)
def test_region_outside_image_rejected(kind):
    with pytest.raises(DegenerateBoxError):
        apply_patch(golden_image(), Box(40.0, 30.0, 52.0, 44.0), kind, SEED,
                    adversarial_patch())

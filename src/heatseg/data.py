"""Deterministic synthetic shape scenes plus dataset storage and batching.

Every sample is generated from its own splitmix64 stream derived from
(seed, sample index), so sample i is identical no matter how many samples
surround it.  Images are colored axis-aligned rectangles, discs and annuli on
a dark background; each foreground category owns one shape family and one
palette color, later shapes overwrite earlier ones, and the whole image is
quantized to its 8-bit raster.  Samples hold that uint8 raster, as the PPM
file does, and ``stack_batch`` scales each batch to [0, 1] in the run dtype.

On disk a dataset is a directory with images/*.ppm (binary P6), masks/*.pgm
(binary P5, raw category indices) and an index.txt manifest of
"image<TAB>mask" relative paths, UTF-8 with LF line endings.
"""
from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class DataError(ValueError):
    """Malformed dataset file; the message names the file and byte offset."""


def _mix_int(z):
    """splitmix64's output mix of an int, or of a uint64 array, which wraps alike."""
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Counter-based splitmix64; scalar draws and vector blocks share one stream."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & MASK64
        return _mix_int(self._state)

    def floats(self, n: int) -> np.ndarray:
        ks = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        self._state = (self._state + n * _GOLDEN) & MASK64
        return (_mix_int(ks) >> 11).astype(np.float64) * 2.0 ** -53

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.next_u64() % (hi - lo + 1)

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(0, i)
            seq[i], seq[j] = seq[j], seq[i]


def sample_stream(seed: int, index: int) -> SplitMix64:
    return SplitMix64(_mix_int((seed & MASK64) ^ _mix_int(index + 1)))


@dataclass
class SegSample:
    image: np.ndarray  # (3, H, W) uint8 raster; ``to_unit`` scales it to [0, 1]
    label: np.ndarray  # (H, W) uint8 category indices


@dataclass
class SynthConfig:
    num_samples: int
    size: int = 64
    num_categories: int = 4
    seed: int = 0
    shapes_min: int = 1
    shapes_max: int = 3
    noise: float = 0.02

    def __post_init__(self):
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.size < 8 or self.size % 4 != 0:
            raise ValueError(f"size must be >= 8 and divisible by 4, got {self.size}")
        if not 2 <= self.num_categories <= 256:
            raise ValueError(f"num_categories must be in [2, 256], got {self.num_categories}")
        if not 0 <= self.shapes_min <= self.shapes_max:
            raise ValueError("need 0 <= shapes_min <= shapes_max")
        # NaN fails both bounds
        if not 0 <= self.noise < np.inf:
            raise ValueError(f"noise amplitude must be a finite number >= 0, got {self.noise}")


_BACKGROUND = (0.16, 0.17, 0.20)
_FOREGROUND = (
    (0.85, 0.10, 0.10),
    (0.10, 0.80, 0.15),
    (0.15, 0.25, 0.90),
    (0.90, 0.85, 0.10),
    (0.85, 0.15, 0.80),
    (0.10, 0.80, 0.85),
    (0.95, 0.55, 0.10),
    (0.55, 0.20, 0.85),
)
_COLOR_JITTER = 0.06


def category_color(cat: int) -> Tuple[float, float, float]:
    if cat == 0:
        return _BACKGROUND
    return _FOREGROUND[(cat - 1) % len(_FOREGROUND)]


def _paint(image: np.ndarray, label: np.ndarray, mask: np.ndarray, color: np.ndarray, cat: int):
    image[:, mask] = color[:, None]
    label[mask] = cat


def _generate_one(cfg: SynthConfig, index: int) -> SegSample:
    rng = sample_stream(cfg.seed, index)
    size = cfg.size
    image = np.empty((3, size, size), dtype=np.float64)
    for c in range(3):
        image[c].fill(_BACKGROUND[c])
    label = np.zeros((size, size), dtype=np.uint8)
    ys, xs = np.mgrid[0:size, 0:size]

    for cat in range(1, cfg.num_categories):
        family = (cat - 1) % 3
        base = np.asarray(category_color(cat))
        count = rng.randint(cfg.shapes_min, cfg.shapes_max)
        for _ in range(count):
            jitter = (rng.floats(3) * 2.0 - 1.0) * _COLOR_JITTER
            color = np.clip(base + jitter, 0.0, 1.0)
            cy = rng.randint(0, size - 1)
            cx = rng.randint(0, size - 1)
            if family == 0:
                half_h = rng.randint(max(2, size // 16), max(3, size // 6))
                half_w = rng.randint(max(2, size // 16), max(3, size // 6))
                mask = (np.abs(ys - cy) <= half_h) & (np.abs(xs - cx) <= half_w)
            elif family == 1:
                r = rng.randint(max(2, size // 14), max(3, size // 6))
                mask = (ys - cy) ** 2 + (xs - cx) ** 2 <= r * r
            else:
                ro = rng.randint(max(3, size // 10), max(4, size // 5))
                ri = max(1, ro // 2)
                d2 = (ys - cy) ** 2 + (xs - cx) ** 2
                mask = (d2 <= ro * ro) & (d2 > ri * ri)
            _paint(image, label, mask, color, cat)

    if cfg.noise > 0:
        noise = (rng.floats(3 * size * size).reshape(3, size, size) * 2.0 - 1.0) * cfg.noise
        image = np.clip(image + noise, 0.0, 1.0)
    image = np.round(image * 255.0).astype(np.uint8)
    return SegSample(image=image, label=label)


def synth_generate(cfg: SynthConfig) -> List[SegSample]:
    """Generate the configured samples and post-check category coverage.

    With at least one shape per category, each foreground category must cover
    at least one pixel in 80% of the samples; overwriting by later categories
    makes occasional dropouts legal.  Wholesale absence means the canvas is
    too small for the categories asked for, and raises ``ValueError``.
    """
    samples = [_generate_one(cfg, i) for i in range(cfg.num_samples)]
    if cfg.shapes_min >= 1 and cfg.num_categories > 1:
        present = np.zeros(cfg.num_categories, dtype=np.int64)
        for s in samples:
            present += np.bincount(
                np.unique(s.label).astype(np.int64), minlength=cfg.num_categories
            )
        frac = present[1:] / float(cfg.num_samples)
        if (frac < 0.8).any():
            worst = int(np.argmin(frac)) + 1
            raise ValueError(
                f"category {worst} present in only {frac[worst - 1]:.0%} of samples"
            )
    return samples


def pixel_frequencies(samples: Sequence[SegSample], num_categories: int) -> List[float]:
    counts = np.zeros(num_categories, dtype=np.int64)
    for s in samples:
        counts += np.bincount(s.label.ravel().astype(np.int64), minlength=num_categories)
    return (counts / counts.sum()).tolist()


# ---------------------------------------------------------------------------
# netpbm files


def _save_netpbm(path, magic: str, raster: np.ndarray) -> None:
    """Write an (H, W) or channels-last (H, W, 3) uint8 raster with maxval 255."""
    if raster.dtype != np.uint8:
        raise ValueError(f"expected a uint8 raster, got dtype {raster.dtype}")
    h, w = raster.shape[:2]
    with open(path, "wb") as f:
        f.write(f"{magic}\n{w} {h}\n255\n".encode("ascii"))
        f.write(raster.tobytes())


def save_ppm(path, image: np.ndarray) -> None:
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected a (3, H, W) image, got shape {image.shape}")
    _save_netpbm(path, "P6", image.transpose(1, 2, 0))


def save_pgm(path, values: np.ndarray) -> None:
    if values.ndim != 2:
        raise ValueError(f"expected a (H, W) array, got shape {values.shape}")
    _save_netpbm(path, "P5", values)


# whitespace and comments, from '#' to the end of the line, separate header fields
_SEPARATOR = re.compile(rb"(?:\s|#[^\r\n]*)*")
_DIGITS = re.compile(rb"[0-9]*")


def _parse_netpbm(path, expected_magic: bytes) -> Tuple[np.ndarray, int, int]:
    with open(path, "rb") as f:
        data = f.read()
    if data[:2] != expected_magic:
        raise DataError(
            f"{path}: offset 0: expected {expected_magic.decode()} magic, found {data[:2]!r}"
        )
    pos = 2
    fields = []
    while len(fields) < 3:
        start = pos = _SEPARATOR.match(data, pos).end()
        pos = _DIGITS.match(data, pos).end()
        if pos == start:
            raise DataError(f"{path}: offset {pos}: expected a decimal header field")
        fields.append(int(data[start:pos]))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise DataError(f"{path}: offset 2: non-positive image extents {width}x{height}")
    if maxval != 255:
        raise DataError(f"{path}: offset {pos}: unsupported maxval {maxval}, need 255")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise DataError(f"{path}: offset {pos}: expected single whitespace after maxval")
    pos += 1
    channels = 3 if expected_magic == b"P6" else 1
    need = width * height * channels
    raster = data[pos : pos + need]
    if len(raster) != need:
        raise DataError(
            f"{path}: offset {pos}: raster has {len(data) - pos} bytes, expected {need}"
        )
    flat = np.frombuffer(raster, dtype=np.uint8)
    return flat, width, height


def load_ppm(path) -> np.ndarray:
    """The (3, H, W) uint8 raster of a P6 file, in memory of its own."""
    flat, width, height = _parse_netpbm(path, b"P6")
    return flat.reshape(height, width, 3).transpose(2, 0, 1).copy()


def load_pgm(path) -> np.ndarray:
    flat, width, height = _parse_netpbm(path, b"P5")
    return flat.reshape(height, width).copy()


# ---------------------------------------------------------------------------
# dataset directories


def save_dataset(samples: Sequence[SegSample], out_dir) -> None:
    out = Path(out_dir)
    (out / "images").mkdir(parents=True, exist_ok=True)
    (out / "masks").mkdir(parents=True, exist_ok=True)
    lines = []
    for i, sample in enumerate(samples):
        img_rel = f"images/img_{i:05d}.ppm"
        msk_rel = f"masks/msk_{i:05d}.pgm"
        save_ppm(out / img_rel, sample.image)
        save_pgm(out / msk_rel, sample.label)
        lines.append(f"{img_rel}\t{msk_rel}\n")
    with open(out / "index.txt", "w", encoding="utf-8", newline="\n") as f:
        f.writelines(lines)


class ManifestEntry(NamedTuple):
    """One manifest line: the file paths of a sample and where they were listed."""

    manifest: str
    lineno: int
    image: str
    mask: str


def read_manifest(root) -> List[ManifestEntry]:
    """The samples a dataset directory lists, as paths; no image is read."""
    root = str(Path(root))
    manifest = os.path.join(root, "index.txt")
    if not os.path.isfile(manifest):
        raise DataError(f"{manifest}: manifest not found")
    entries = []
    with open(manifest, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{manifest}: line {lineno}: expected 'image<TAB>mask'")
            # plain strings: pathlib cost about as much as parsing the file
            image, mask = os.path.join(root, parts[0]), os.path.join(root, parts[1])
            entries.append(ManifestEntry(manifest, lineno, image, mask))
    if not entries:
        raise DataError(f"{manifest}: manifest lists no samples")
    return entries


def load_sample(entry: ManifestEntry) -> SegSample:
    image = load_ppm(entry.image)
    label = load_pgm(entry.mask)
    if image.shape[1:] != label.shape:
        raise DataError(
            f"{entry.manifest}: line {entry.lineno}: image extents {image.shape[1:]} "
            f"do not match mask extents {label.shape}"
        )
    return SegSample(image=image, label=label)


def load_dataset(root) -> List[SegSample]:
    return [load_sample(entry) for entry in read_manifest(root)]


# ---------------------------------------------------------------------------
# batching


def epoch_order(num_samples: int, seed: int, shuffle: bool, epoch: int) -> List[int]:
    order = list(range(num_samples))
    if shuffle:
        SplitMix64((seed + epoch) & MASK64).shuffle(order)
    return order


def batches(
    samples: Sequence,
    batch_size: int,
    seed: int,
    shuffle: bool,
    epoch: int = 0,
) -> List[list]:
    """Deterministic batches of samples, or of the manifest entries that
    ``load_sample`` reads, for one epoch; a short final batch is kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = epoch_order(len(samples), seed, shuffle, epoch)
    return [
        [samples[i] for i in order[start : start + batch_size]]
        for start in range(0, len(samples), batch_size)
    ]


def to_unit(raster: np.ndarray, dtype=np.float64) -> np.ndarray:
    """A uint8 raster scaled to [0, 1] in ``dtype``.  In float32 each value
    equals float64 ``k / 255`` rounded to float32: float64 has more than
    2 * 24 + 2 mantissa bits, so rounding its quotient twice is harmless."""
    if raster.dtype != np.uint8:
        raise ValueError(f"expected a uint8 raster, got dtype {raster.dtype}")
    return raster.astype(dtype) / 255


def stack_batch(batch: Sequence[SegSample], dtype=np.float64):
    images = to_unit(np.stack([s.image for s in batch]), dtype)
    labels = np.stack([s.label for s in batch])
    return images, labels

"""Deterministic synthetic shape scenes plus dataset storage and batching.

Every sample is generated from its own splitmix64 stream derived from
(seed, sample index), so sample i is identical no matter how many samples
surround it.  Images are colored axis-aligned rectangles, discs and annuli on
a dark background; each foreground category owns one shape family and one
palette color, later shapes overwrite earlier ones, and the whole image is
quantized to the 8-bit grid so the PPM round trip is lossless.

On disk a dataset is a directory with images/*.ppm (binary P6), masks/*.pgm
(binary P5, raw category indices) and an index.txt manifest of
"image<TAB>mask" relative paths, UTF-8 with LF line endings.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class DataError(ValueError):
    """Malformed dataset file; the message names the file and byte offset."""


def _mix_int(z: int) -> int:
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

    def next_float(self) -> float:
        return (self.next_u64() >> 11) * 2.0 ** -53

    def floats(self, n: int) -> np.ndarray:
        ks = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        self._state = (self._state + n * _GOLDEN) & MASK64
        with np.errstate(over="ignore"):
            z = (ks ^ (ks >> np.uint64(30))) * np.uint64(_MIX1)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
            z = z ^ (z >> np.uint64(31))
        return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53

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
    image: np.ndarray  # (3, H, W) float64 in [0, 1], on the 1/255 grid
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
    image = np.round(image * 255.0) / 255.0
    return SegSample(image=image, label=label)


def synth_generate(cfg: SynthConfig) -> List[SegSample]:
    """Generate the configured samples and post-check category coverage.

    With at least one shape per category, each foreground category must cover
    at least one pixel in 80% of the samples; overwriting by later categories
    makes occasional dropouts legal, wholesale absence is a generator bug.
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
            raise RuntimeError(
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


def save_ppm(path, image: np.ndarray) -> None:
    if image.ndim != 3 or image.shape[0] != 3:
        raise ValueError(f"expected a (3, H, W) image, got shape {image.shape}")
    h, w = image.shape[1], image.shape[2]
    raster = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(raster.transpose(1, 2, 0).tobytes())


def save_pgm(path, values: np.ndarray) -> None:
    if values.ndim != 2:
        raise ValueError(f"expected a (H, W) array, got shape {values.shape}")
    arr = np.asarray(values)
    if arr.dtype != np.uint8:
        if arr.min() < 0 or arr.max() > 255:
            raise ValueError("values outside [0, 255] cannot be stored in a P5 file")
        arr = arr.astype(np.uint8)
    h, w = arr.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(arr.tobytes())


def _parse_netpbm(path, expected_magic: bytes) -> Tuple[np.ndarray, int, int]:
    data = Path(path).read_bytes()
    if data[:2] != expected_magic:
        raise DataError(
            f"{path}: offset 0: expected {expected_magic.decode()} magic, found {data[:2]!r}"
        )
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and data[pos : pos + 1].isdigit():
            pos += 1
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
    flat, width, height = _parse_netpbm(path, b"P6")
    return flat.reshape(height, width, 3).transpose(2, 0, 1).astype(np.float64) / 255.0


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


def load_dataset(root) -> List[SegSample]:
    root = Path(root)
    manifest = root / "index.txt"
    if not manifest.is_file():
        raise DataError(f"{manifest}: manifest not found")
    samples = []
    with open(manifest, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise DataError(f"{manifest}: line {lineno}: expected 'image<TAB>mask'")
            image = load_ppm(root / parts[0])
            label = load_pgm(root / parts[1])
            if image.shape[1:] != label.shape:
                raise DataError(
                    f"{manifest}: line {lineno}: image extents {image.shape[1:]} "
                    f"do not match mask extents {label.shape}"
                )
            samples.append(SegSample(image=image, label=label))
    if not samples:
        raise DataError(f"{manifest}: manifest lists no samples")
    return samples


# ---------------------------------------------------------------------------
# batching


def epoch_order(num_samples: int, seed: int, shuffle: bool, epoch: int) -> List[int]:
    order = list(range(num_samples))
    if shuffle:
        SplitMix64((seed + epoch) & MASK64).shuffle(order)
    return order


def batches(
    samples: Sequence[SegSample],
    batch_size: int,
    seed: int,
    shuffle: bool,
    epoch: int = 0,
) -> List[List[SegSample]]:
    """Deterministic batches for one epoch; a short final batch is kept."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = epoch_order(len(samples), seed, shuffle, epoch)
    return [
        [samples[i] for i in order[start : start + batch_size]]
        for start in range(0, len(samples), batch_size)
    ]


def stack_batch(batch: Sequence[SegSample], dtype=np.float64):
    images = np.stack([s.image for s in batch]).astype(dtype)
    labels = np.stack([s.label for s in batch])
    return images, labels

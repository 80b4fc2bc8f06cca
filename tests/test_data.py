"""Data pipeline tests: the counter-based generator, scene synthesis, the
netpbm round trip, manifest handling, and deterministic batching."""
import numpy as np
import pytest

from heatseg.data import (
    DataError,
    SegSample,
    SplitMix64,
    SynthConfig,
    batches,
    category_color,
    epoch_order,
    load_dataset,
    load_pgm,
    load_ppm,
    pixel_frequencies,
    sample_stream,
    save_dataset,
    save_pgm,
    save_ppm,
    stack_batch,
    synth_generate,
    to_unit,
)


# ---------------------------------------------------------------------------
# random stream


class TestSplitMix:
    def test_same_seed_same_sequence(self):
        a, b = SplitMix64(42), SplitMix64(42)
        assert [a.next_u64() for _ in range(5)] == [b.next_u64() for _ in range(5)]

    def test_block_draws_continue_the_scalar_stream(self):
        a = SplitMix64(7)
        scalar = [(a.next_u64() >> 11) * 2**-53 for _ in range(6)]
        b = SplitMix64(7)
        first = (b.next_u64() >> 11) * 2**-53
        block = b.floats(4)
        last = (b.next_u64() >> 11) * 2**-53
        np.testing.assert_array_equal(np.array(scalar), np.array([first, *block, last]))

    def test_floats_are_in_unit_interval(self):
        vals = SplitMix64(3).floats(1000)
        assert np.all((vals >= 0.0) & (vals < 1.0))
        # a degenerate generator would collapse the spread
        assert vals.std() > 0.2

    def test_randint_is_inclusive_and_validated(self):
        rng = SplitMix64(9)
        draws = {rng.randint(2, 4) for _ in range(200)}
        assert draws == {2, 3, 4}
        with pytest.raises(ValueError, match="empty range"):
            rng.randint(3, 2)

    def test_shuffle_is_a_deterministic_permutation(self):
        a = list(range(20))
        SplitMix64(5).shuffle(a)
        assert sorted(a) == list(range(20)) and a != list(range(20))
        b = list(range(20))
        SplitMix64(5).shuffle(b)
        assert a == b

    def test_sample_streams_are_index_independent(self):
        assert sample_stream(1, 0).next_u64() != sample_stream(1, 1).next_u64()
        assert sample_stream(1, 2).next_u64() == sample_stream(1, 2).next_u64()


# ---------------------------------------------------------------------------
# synthesis


class TestSynth:
    def test_sample_layout_and_grid(self):
        samples = synth_generate(SynthConfig(num_samples=4, size=16, num_categories=3, seed=0))
        assert len(samples) == 4
        for s in samples:
            # the 8-bit raster a PPM file holds, one byte per channel value
            assert s.image.shape == (3, 16, 16) and s.image.dtype == np.uint8
            assert s.image.nbytes == 3 * 16 * 16
            assert s.label.shape == (16, 16) and s.label.dtype == np.uint8
            assert s.label.max() < 3

    def test_generation_is_deterministic(self):
        cfg = SynthConfig(num_samples=3, size=16, num_categories=4, seed=11)
        a, b = synth_generate(cfg), synth_generate(cfg)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.label, sb.label)

    def test_prefix_is_stable_under_sample_count(self):
        big = synth_generate(SynthConfig(num_samples=5, size=16, num_categories=3, seed=2))
        small = synth_generate(SynthConfig(num_samples=3, size=16, num_categories=3, seed=2))
        for sa, sb in zip(small, big[:3]):
            np.testing.assert_array_equal(sa.image, sb.image)
            np.testing.assert_array_equal(sa.label, sb.label)

    def test_every_category_appears_in_most_samples(self):
        samples = synth_generate(SynthConfig(num_samples=25, size=32, num_categories=4, seed=3))
        for cat in range(1, 4):
            share = sum(1 for s in samples if (s.label == cat).any()) / 25.0
            assert share >= 0.8

    def test_shapeless_noiseless_scene_is_flat_background(self):
        cfg = SynthConfig(
            num_samples=1, size=16, num_categories=3, seed=4,
            shapes_min=0, shapes_max=0, noise=0.0,
        )
        s = synth_generate(cfg)[0]
        assert (s.label == 0).all()
        bg = np.round(np.asarray(category_color(0)) * 255.0).astype(np.uint8)
        np.testing.assert_array_equal(s.image, np.broadcast_to(bg[:, None, None], (3, 16, 16)))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="size"):
            SynthConfig(num_samples=1, size=30)
        with pytest.raises(ValueError, match="num_categories"):
            SynthConfig(num_samples=1, num_categories=1)
        with pytest.raises(ValueError, match="shapes_min"):
            SynthConfig(num_samples=1, shapes_min=3, shapes_max=1)
        with pytest.raises(ValueError, match="noise"):
            SynthConfig(num_samples=1, noise=-0.1)

    def test_pixel_frequencies_sum_to_one(self):
        samples = synth_generate(SynthConfig(num_samples=3, size=16, num_categories=3, seed=6))
        freq = pixel_frequencies(samples, 3)
        assert len(freq) == 3 and abs(sum(freq) - 1.0) < 1e-12
        assert freq[0] > 0.2


# ---------------------------------------------------------------------------
# netpbm round trip


class TestNetpbm:
    def test_ppm_round_trip_is_lossless(self, tmp_path):
        s = synth_generate(SynthConfig(num_samples=1, size=16, num_categories=3, seed=7))[0]
        path = tmp_path / "img.ppm"
        save_ppm(path, s.image)
        loaded = load_ppm(path)
        assert loaded.dtype == np.uint8
        np.testing.assert_array_equal(loaded, s.image)

    def test_pgm_round_trip_is_lossless(self, tmp_path):
        values = np.random.default_rng(8).integers(0, 256, size=(12, 9), dtype=np.uint8)
        path = tmp_path / "m.pgm"
        save_pgm(path, values)
        np.testing.assert_array_equal(load_pgm(path), values)

    def test_save_validation(self, tmp_path):
        with pytest.raises(ValueError, match=r"\(3, H, W\)"):
            save_ppm(tmp_path / "x.ppm", np.zeros((16, 16), dtype=np.uint8))
        # a [0, 1] float image is not silently rounded onto the raster
        with pytest.raises(ValueError, match="uint8 raster"):
            save_ppm(tmp_path / "x.ppm", np.zeros((3, 4, 4)))
        assert not (tmp_path / "x.ppm").exists()
        with pytest.raises(ValueError, match="uint8 raster"):
            save_pgm(tmp_path / "x.pgm", np.full((2, 2), 300))

    def test_bad_magic_names_file_and_offset(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(DataError, match="offset 0.*P6"):
            load_ppm(path)

    def test_wrong_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n2 2\n254\n" + b"\x00" * 4)
        with pytest.raises(DataError, match="maxval 254"):
            load_pgm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
        with pytest.raises(DataError, match="raster has 7"):
            load_pgm(path)

    @pytest.mark.parametrize("header", [
        b"P6\n# Created by GIMP version 2.10\n2 2\n255\n",
        b"P6 #comment\n2#width\n# two\n# lines\n2 255\n",
        b"P6\n2\t2\r\n#\r255\n",
    ])
    def test_header_comments_are_skipped(self, tmp_path, header):
        raster = np.arange(12, dtype=np.uint8)
        path = tmp_path / "c.ppm"
        path.write_bytes(header + raster.tobytes())
        np.testing.assert_array_equal(load_ppm(path), raster.reshape(2, 2, 3).transpose(2, 0, 1))

    def test_comment_up_to_the_end_of_the_file_rejected(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n2 2\n# no maxval")
        with pytest.raises(DataError, match="offset 18: expected a decimal header field"):
            load_pgm(path)

    def test_junk_header_rejected(self, tmp_path):
        path = tmp_path / "junk.pgm"
        path.write_bytes(b"P5\nab cd\n255\n")
        with pytest.raises(DataError, match="decimal header field"):
            load_pgm(path)


# ---------------------------------------------------------------------------
# dataset directories


class TestDatasetIO:
    def test_save_load_round_trip(self, tmp_path):
        samples = synth_generate(SynthConfig(num_samples=3, size=16, num_categories=3, seed=9))
        save_dataset(samples, tmp_path / "ds")
        loaded = load_dataset(tmp_path / "ds")
        assert len(loaded) == 3
        for a, b in zip(samples, loaded):
            # each raster owns its 3*H*W bytes; no file buffer stays behind it
            assert b.image.dtype == np.uint8 and b.image.nbytes == 3 * 16 * 16
            assert b.image.base is None and b.image.flags.c_contiguous
            np.testing.assert_array_equal(a.image, b.image)
            np.testing.assert_array_equal(a.label, b.label)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="manifest not found"):
            load_dataset(tmp_path)

    def test_malformed_manifest_line_reports_number(self, tmp_path):
        ds = tmp_path / "ds"
        samples = synth_generate(SynthConfig(num_samples=1, size=16, num_categories=2, seed=10))
        save_dataset(samples, ds)
        with open(ds / "index.txt", "a", encoding="utf-8") as f:
            f.write("no-tab-here\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(ds)

    def test_extent_mismatch_reported(self, tmp_path):
        ds = tmp_path / "ds"
        samples = synth_generate(SynthConfig(num_samples=1, size=16, num_categories=2, seed=11))
        save_dataset(samples, ds)
        save_pgm(ds / "masks" / "msk_00000.pgm", np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(DataError, match="do not match"):
            load_dataset(ds)

    def test_empty_manifest_rejected(self, tmp_path):
        ds = tmp_path / "ds"
        ds.mkdir()
        (ds / "index.txt").write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="no samples"):
            load_dataset(ds)


# ---------------------------------------------------------------------------
# batching


class TestBatching:
    def samples(self, n=7):
        return [
            SegSample(
                image=np.full((3, 4, 4), 10 * i, dtype=np.uint8),
                label=np.full((4, 4), i % 3, dtype=np.uint8),
            )
            for i in range(n)
        ]

    def test_unshuffled_order_is_identity(self):
        assert epoch_order(5, seed=0, shuffle=False, epoch=3) == [0, 1, 2, 3, 4]

    def test_shuffled_order_is_deterministic_and_epoch_dependent(self):
        a = epoch_order(10, seed=1, shuffle=True, epoch=0)
        b = epoch_order(10, seed=1, shuffle=True, epoch=0)
        c = epoch_order(10, seed=1, shuffle=True, epoch=1)
        assert a == b and a != c and sorted(a) == list(range(10))

    def test_short_final_batch_is_kept(self):
        out = batches(self.samples(7), batch_size=3, seed=0, shuffle=False)
        assert [len(b) for b in out] == [3, 3, 1]
        np.testing.assert_array_equal(out[2][0].image, self.samples(7)[6].image)

    def test_batches_follow_the_epoch_order(self):
        samples = self.samples(6)
        order = epoch_order(6, seed=2, shuffle=True, epoch=4)
        out = batches(samples, batch_size=4, seed=2, shuffle=True, epoch=4)
        flat = [s for b in out for s in b]
        for idx, s in zip(order, flat):
            np.testing.assert_array_equal(s.image, samples[idx].image)

    def test_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            batches(self.samples(3), batch_size=0, seed=0, shuffle=False)

    def test_stack_batch_shapes_and_dtype(self):
        images, labels = stack_batch(self.samples(3), dtype=np.float32)
        assert images.shape == (3, 3, 4, 4) and images.dtype == np.float32
        assert labels.shape == (3, 4, 4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stack_batch_scales_every_byte_as_float64_division_does(self, dtype):
        raster = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
        sample = SegSample(image=np.repeat(raster, 3, axis=0), label=np.zeros((16, 16), np.uint8))
        images, _ = stack_batch([sample], dtype=dtype)
        # the reference rounds the float64 quotient k / 255 to the run dtype
        expected = (sample.image[None].astype(np.float64) / 255.0).astype(dtype)
        assert images.dtype == dtype
        np.testing.assert_array_equal(images.view(f"u{images.itemsize}"),
                                      expected.view(f"u{expected.itemsize}"))
        assert images.min() == 0.0 and images.max() == 1.0

    def test_to_unit_rejects_scaled_images(self):
        with pytest.raises(ValueError, match="uint8 raster"):
            to_unit(np.zeros((1, 3, 4, 4)))

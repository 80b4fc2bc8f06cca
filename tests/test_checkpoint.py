"""Checkpoint container tests: bit-exact round trips and structural errors."""
import struct

import numpy as np
import pytest

from heatseg.checkpoint import CheckpointError, load_checkpoint, save_checkpoint


def arrays_fixture():
    rng = np.random.default_rng(0)
    return [
        ("weights", rng.normal(size=(3, 4))),
        ("bias", rng.normal(size=(4,)).astype(np.float32)),
        ("scalar", np.asarray(2.5)),
    ]


def test_round_trip_preserves_values_order_and_meta(tmp_path):
    path = tmp_path / "m.ckpt"
    meta = {"step": 7, "config": {"seed": 1}}
    stored = arrays_fixture()
    save_checkpoint(path, stored, meta)
    loaded, got_meta = load_checkpoint(path)
    assert list(loaded) == ["weights", "bias", "scalar"]
    for name, arr in stored:
        np.testing.assert_array_equal(loaded[name], arr)
        assert loaded[name].dtype == arr.dtype
    assert got_meta == meta


def test_save_load_save_is_bit_exact(tmp_path):
    a, b = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a, arrays_fixture(), {"step": 1})
    loaded, meta = load_checkpoint(a)
    save_checkpoint(b, list(loaded.items()), meta)
    assert a.read_bytes() == b.read_bytes()


def test_duplicate_names_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="duplicate"):
        save_checkpoint(tmp_path / "x", [("a", np.zeros(2)), ("a", np.zeros(2))], {})


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="unsupported dtype"):
        save_checkpoint(tmp_path / "x", [("a", np.zeros(2, dtype=np.int32))], {})


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "x"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "x"
    save_checkpoint(path, [("a", np.zeros(2))], {})
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version 99"):
        load_checkpoint(path)


def test_truncated_header_rejected(tmp_path):
    path = tmp_path / "x"
    save_checkpoint(path, [("a", np.zeros(2))], {})
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_array_past_end_of_file_rejected(tmp_path):
    path = tmp_path / "x"
    save_checkpoint(path, [("a", np.zeros(4))], {})
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 8])
    with pytest.raises(CheckpointError, match="past end"):
        load_checkpoint(path)


def test_unreadable_header_rejected(tmp_path):
    path = tmp_path / "x"
    body = b"not json"
    path.write_bytes(b"BCRS" + struct.pack("<I", 1) + struct.pack("<I", len(body)) + body)
    with pytest.raises(CheckpointError, match="unreadable header"):
        load_checkpoint(path)


def test_failed_save_leaves_previous_checkpoint_intact(tmp_path, monkeypatch):
    import heatseg.checkpoint as ckpt_module

    path = tmp_path / "m.ckpt"
    save_checkpoint(path, arrays_fixture(), {"step": 1})
    before = path.read_bytes()

    class FailsAfterTwoWrites:
        """A file whose third write fails, as on a full disk."""

        def __init__(self, f):
            self.f, self.writes = f, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()
            return False

        def write(self, data):
            self.writes += 1
            if self.writes > 2:
                raise OSError("no space left on device")
            return self.f.write(data)

        def __getattr__(self, name):
            return getattr(self.f, name)

    monkeypatch.setattr(
        ckpt_module, "open", lambda *a, **k: FailsAfterTwoWrites(open(*a, **k)), raising=False
    )
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, [("weights", np.ones((3, 4)))], {"step": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

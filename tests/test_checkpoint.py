"""Checkpoint container tests: bit-exact round trips and structural errors."""
import json
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


# ---------------------------------------------------------------------------
# malformed headers


def split_file(raw):
    (header_len,) = struct.unpack_from("<I", raw, 8)
    return json.loads(raw[12 : 12 + header_len]), raw[12 + header_len :]


def pack_file(header, data):
    body = json.dumps(header).encode("utf-8")
    return b"BCRS" + struct.pack("<II", 1, len(body)) + body + data


def valid_file(tmp_path):
    path = tmp_path / "valid"
    save_checkpoint(path, arrays_fixture(), {"step": 1})
    return path.read_bytes()


def drop(key):
    return lambda entry: entry.pop(key)


def put(key, value):
    return lambda entry: entry.__setitem__(key, value)


@pytest.mark.parametrize("mutate, message", [
    (drop("name"), "no string 'name'"),
    (put("name", 3), "no string 'name'"),
    (put("dtype", "<i4"), "unknown dtype"),
    (drop("dtype"), "unknown dtype"),
    (put("shape", "3,4"), "not a list of extents"),
    (put("shape", [3, -4]), "not a list of extents"),
    (put("shape", [3.0, 4]), "not a list of extents"),
    (put("shape", [True, 4]), "not a list of extents"),
    (put("offset", -8), "not a non-negative integer"),
    (put("offset", 0.0), "not a non-negative integer"),
    (drop("offset"), "not a non-negative integer"),
])
def test_malformed_entry_rejected(tmp_path, mutate, message):
    header, data = split_file(valid_file(tmp_path))
    mutate(header["arrays"][0])
    path = tmp_path / "x"
    path.write_bytes(pack_file(header, data))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, message", [
    (lambda h: [h], "not a JSON object"),
    (lambda h: {**h, "arrays": {}}, "'arrays' must be a list"),
    (lambda h: {**h, "meta": [1]}, "'meta' an object"),
    (lambda h: {**h, "arrays": h["arrays"] + [7]}, "entry 3 is not an object"),
    (lambda h: {**h, "arrays": h["arrays"] + [dict(h["arrays"][0])]}, "duplicate array name"),
    (lambda h: {**h, "arrays": [{**h["arrays"][0], "offset": 8}] + h["arrays"][1:]},
     "overlap"),
])
def test_malformed_header_rejected(tmp_path, edit, message):
    header, data = split_file(valid_file(tmp_path))
    path = tmp_path / "x"
    path.write_bytes(pack_file(edit(header), data))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "x"
    path.write_bytes(valid_file(tmp_path) + b"\x00" * 4)
    with pytest.raises(CheckpointError, match="4 trailing bytes"):
        load_checkpoint(path)


FUZZ_VALUES = [None, True, -1, 0, 3, 2**40, -(2**40), 1.5, "", "x", "<f8", [], [2], [-1],
               [2**31, 2**31], {}, {"name": "a"}]


def fuzz_cases(raw, rng, mutations):
    """Every truncation inside the header, then seeded field mutations."""
    header, data = split_file(raw)
    for cut in range(len(raw) - len(data)):
        yield raw[:cut]
    for _ in range(mutations):
        doc = json.loads(json.dumps(header))
        value = FUZZ_VALUES[rng.integers(len(FUZZ_VALUES))]
        target = rng.integers(4)
        if target == 0:
            doc[["arrays", "meta"][rng.integers(2)]] = value
        elif target == 1:
            doc = value
        else:
            entry = doc["arrays"][rng.integers(len(doc["arrays"]))]
            key = ["name", "shape", "offset", "dtype"][rng.integers(4)]
            if target == 2:
                entry[key] = value
            else:
                entry.pop(key)
        yield pack_file(doc, data)


def test_fuzzed_checkpoints_exit_two_or_load(tmp_path, tiny_config, tiny_data_dir, capsys):
    from heatseg.cli import main
    from heatseg.config import load_run_config
    from heatseg.model import SegModel

    # no coupling layers keeps the header, and so the truncation count, small
    cfg = load_run_config(tiny_config(decoder_layers=0))
    model = SegModel(cfg.model_config(), seed=cfg.seed, dtype=cfg.dtype)
    path = tmp_path / "m.ckpt"
    save_checkpoint(path, [(n, p.data) for n, p in model.named_parameters()],
                    {"config": cfg.to_dict(), "step": 0})
    raw = path.read_bytes()
    loaded = rejected = 0
    for case in fuzz_cases(raw, np.random.default_rng(1234), mutations=200):
        path.write_bytes(case)
        try:
            load_checkpoint(path)
        except CheckpointError:
            rejected += 1
            assert main(["eval", "--ckpt", str(path), "--data", str(tiny_data_dir)]) == 2
        else:
            loaded += 1
    capsys.readouterr()
    assert rejected > len(raw) - len(split_file(raw)[1]) and loaded > 0

"""The committed float64 reference: logged losses, eval JSON and forward
logits at the tiny config must match ``reference_f64.json`` to 1e-12
relative.  ``make_reference.py`` writes the file and computes the values."""
import json

import numpy as np
import pytest

import make_reference

RTOL = 1e-12


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return make_reference.compute(tmp_path_factory.mktemp("reference"))


@pytest.fixture(scope="module")
def stored():
    return json.loads(make_reference.REFERENCE.read_text(encoding="utf-8"))


def assert_close(actual, expected, where):
    """Same structure and keys; numbers within RTOL relative, None where None."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict) and actual.keys() == expected.keys(), where
        for key in expected:
            assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_close(a, e, f"{where}[{i}]")
    elif expected is None:
        assert actual is None, where
    else:
        np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=0, err_msg=where)


@pytest.mark.parametrize("layers", make_reference.LAYERS)
def test_logged_losses_match(current, stored, layers):
    log = current["runs"][f"L{layers}"]["log"]
    assert [r["step"] for r in log] == list(range(1, make_reference.STEPS + 1))
    assert_close(log, stored["runs"][f"L{layers}"]["log"], f"L{layers}.log")


@pytest.mark.parametrize("layers", make_reference.LAYERS)
def test_eval_json_matches(current, stored, layers):
    key = f"L{layers}"
    assert_close(current["runs"][key]["eval"], stored["runs"][key]["eval"], f"{key}.eval")


def test_forward_logits_match(current, stored):
    assert current["logits"]["shape"] == stored["logits"]["shape"]
    np.testing.assert_allclose(
        current["logits"]["values"], stored["logits"]["values"], rtol=RTOL, atol=0
    )

"""Parameter store, Adam updates, and checkpoint round trips."""

import numpy as np
import pytest

from cardiomotion.container import read_container, write_container
from cardiomotion.nn.params import ParameterStore, adam_step, load_checkpoint, save_checkpoint
from cardiomotion.nn.tensor import mul, smul, sub, sum_all


def test_store_registration_and_lookup():
    store = ParameterStore()
    t = store.add("w", np.ones((2, 3)))
    assert store["w"] is t
    assert list(store.params) == ["w"]
    with pytest.raises(ValueError):
        store.add("w", np.zeros(2))


def test_adam_requires_gradients():
    store = ParameterStore()
    store.add("w", np.ones(3))
    with pytest.raises(ValueError):
        adam_step(store, 0.1)


def test_adam_minimizes_quadratic():
    # (p - 3)^2 drives p to 3 within a few hundred steps at lr 0.1
    store = ParameterStore()
    p = store.add("p", np.array([0.0]))
    for _ in range(500):
        loss = sum_all(mul(sub(p, 3.0), sub(p, 3.0)))
        loss.backward()
        adam_step(store, 0.1)
    assert abs(p.values[0] - 3.0) < 1e-3
    assert store.step_count == 500
    assert p.grad is None  # adam_step consumes gradients


def test_adam_first_step_moves_by_learning_rate():
    # bias correction makes the first unit-gradient step exactly lr long
    store = ParameterStore()
    p = store.add("p", np.array([1.0, 1.0]))
    sum_all(p).backward()
    adam_step(store, 0.05)
    assert np.allclose(p.values, 1.0 - 0.05, atol=1e-9)


def test_decoupled_decay_shrinks_without_gradient_signal():
    store = ParameterStore()
    p = store.add("p", np.array([2.0]))
    for _ in range(10):
        smul(sum_all(p), 0.0).backward()  # zero gradient everywhere
        adam_step(store, 0.1, weight_decay=lambda name: 0.5)
    assert np.allclose(p.values, 2.0 * (1.0 - 0.1 * 0.5) ** 10, atol=1e-12)


def test_callable_decay_selects_by_name():
    store = ParameterStore()
    a = store.add("net.w", np.array([1.0]))
    b = store.add("head.w", np.array([1.0]))
    smul(sum_all(sub(a, a)), 0.0).backward()
    smul(sum_all(sub(b, b)), 0.0).backward()
    a.grad = np.zeros(1)
    b.grad = np.zeros(1)
    adam_step(store, 0.1, weight_decay=lambda n: 1.0 if n.startswith("net.") else 0.0)
    assert np.allclose(a.values, 0.9) and np.allclose(b.values, 1.0)


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    store = ParameterStore()
    store.add("a", rng.standard_normal((3, 4)))
    store.add("b", rng.standard_normal(5))
    for _ in range(3):
        loss = sum_all(mul(store["a"], store["a"]))
        loss.backward()
        store["b"].grad = rng.standard_normal(5)
        adam_step(store, 0.01)
    path = tmp_path / "ckpt.lmf1"
    save_checkpoint(store, path)

    restored = ParameterStore()
    restored.add("a", np.zeros((3, 4)))
    restored.add("b", np.zeros(5))
    load_checkpoint(restored, path)
    assert restored.step_count == 3
    for name in ("a", "b"):
        assert np.array_equal(restored[name].values, store[name].values)
        assert np.array_equal(restored.moment1[name], store.moment1[name])
        assert np.array_equal(restored.moment2[name], store.moment2[name])


def test_checkpoint_resume_matches_uninterrupted_run(tmp_path):
    def run(store, steps, rng):
        for _ in range(steps):
            loss = sum_all(mul(store["p"], store["p"]))
            loss.backward()
            adam_step(store, 0.05)

    full = ParameterStore()
    full.add("p", np.full(3, 2.0))
    run(full, 8, None)

    half = ParameterStore()
    half.add("p", np.full(3, 2.0))
    run(half, 4, None)
    path = tmp_path / "mid.lmf1"
    save_checkpoint(half, path)
    resumed = ParameterStore()
    resumed.add("p", np.zeros(3))
    load_checkpoint(resumed, path)
    run(resumed, 4, None)
    assert np.array_equal(resumed["p"].values, full["p"].values)


def test_checkpoint_validates_names_and_shapes(tmp_path):
    store = ParameterStore()
    store.add("w", np.ones((2, 2)))
    path = tmp_path / "ckpt.lmf1"
    save_checkpoint(store, path)

    missing = ParameterStore()
    missing.add("other", np.ones((2, 2)))
    with pytest.raises(ValueError):
        load_checkpoint(missing, path)

    wrong_shape = ParameterStore()
    wrong_shape.add("w", np.ones((3, 3)))
    with pytest.raises(ValueError):
        load_checkpoint(wrong_shape, path)

    subset = ParameterStore()  # checkpoint has records this store does not expect
    with pytest.raises(ValueError):
        load_checkpoint(subset, path)


_BAD_STEPS = {
    "empty": np.zeros(0),
    "inf": np.asarray(np.inf),
    "nan": np.asarray(np.nan),
    "negative": np.asarray(-1.0),
    "fractional": np.asarray(2.5),
    "two_values": np.asarray([1.0, 2.0]),
}


@pytest.mark.parametrize("kind", sorted(_BAD_STEPS))
def test_checkpoint_rejects_bad_step_record_before_loading(tmp_path, kind):
    store = ParameterStore()
    store.add("w", np.ones((2, 2)))
    path = tmp_path / "ckpt.lmf1"
    save_checkpoint(store, path)
    records = read_container(path)
    records["meta/step"] = _BAD_STEPS[kind]
    write_container(path, records)

    target = ParameterStore()
    target.add("w", np.full((2, 2), 7.0))
    target.step_count = 3
    with pytest.raises(ValueError, match="meta/step"):
        load_checkpoint(target, path)
    assert target.step_count == 3 and np.all(target["w"].values == 7.0)


@pytest.mark.parametrize("key, value", [("param/w", np.nan), ("m2/w", np.inf)])
def test_checkpoint_rejects_non_finite_records_before_loading(tmp_path, key, value):
    store = ParameterStore()
    store.add("w", np.ones((2, 2)))
    path = tmp_path / "ckpt.lmf1"
    save_checkpoint(store, path)
    records = read_container(path)
    records[key][1, 0] = value
    write_container(path, records)

    target = ParameterStore()
    target.add("w", np.full((2, 2), 7.0))
    with pytest.raises(ValueError, match=f"record '{key}' contains non-finite values") as exc:
        load_checkpoint(target, path)
    assert str(path) in str(exc.value)
    assert np.all(target["w"].values == 7.0) and not np.any(target.moment2["w"])

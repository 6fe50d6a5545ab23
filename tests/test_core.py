"""Core types, config validation, substreams, and config file round-trips."""

import tracemalloc

import numpy as np
import pytest

from walkforget import (
    ClientDataset,
    ConfigError,
    CorrectionMode,
    FeasibleRegion,
    Graph,
    ModelState,
    RunConfig,
    config_from_text,
    config_to_text,
    config_violations,
    substream,
    validate_config,
)


class TestGraph:
    def test_too_small(self):
        for make in (Graph.complete, Graph):
            with pytest.raises(ValueError, match="at least 2 clients"):
                make(1)


class TestModelState:
    def test_immutable_and_finite(self):
        m = ModelState(np.array([1.0, 2.0]))
        assert m.dim == 2
        with pytest.raises(ValueError):
            m.params[0] = 3.0
        with pytest.raises(ValueError):
            ModelState(np.array([1.0, np.inf]))


class TestFeasibleRegion:
    def test_ball_needs_center(self):
        with pytest.raises(ValueError):
            FeasibleRegion(kind="ball")

    def test_contains(self):
        r = FeasibleRegion.ball(np.zeros(2), 1.0)
        assert r.contains(np.array([0.5, 0.5]))
        assert not r.contains(np.array([1.0, 1.0]))


class TestClientDataset:
    def test_forget_bookkeeping(self):
        data = ClientDataset(np.zeros((5, 2)), np.zeros(5), (1, 3))
        assert data.n_u == 5 and data.m == 2
        assert list(data.retained_indices()) == [0, 2, 4]
        assert data.without_forget().n_u == 3

    @pytest.mark.parametrize("forget", [(), (1, 3), (0, 1, 2, 3)])
    def test_rows_are_taken_once_and_read_only(self, forget):
        rng = substream(13, "rows")
        data = ClientDataset(rng.normal(size=(5, 2)), rng.normal(size=5), forget)
        kept, gone = data.retained_rows, data.forget_rows
        assert data.retained_rows is kept and data.forget_rows is gone
        keep = data.retained_indices()
        np.testing.assert_array_equal(kept[0], data.features[keep])
        np.testing.assert_array_equal(kept[1], data.labels[keep])
        assert not any(arr.flags.writeable for arr in kept)
        without = data.without_forget()
        assert np.shares_memory(without.features, kept[0])
        assert np.shares_memory(without.labels, kept[1])
        if not forget:
            assert kept[0] is data.features and kept[1] is data.labels and gone is None
        else:
            np.testing.assert_array_equal(gone[0], data.features[list(forget)])
            np.testing.assert_array_equal(gone[1], data.labels[list(forget)])
            assert not any(arr.flags.writeable for arr in gone)
        with pytest.raises(AttributeError):
            data.retained_rows = kept

    @pytest.mark.parametrize("n", [0, 3])
    def test_no_retained_row_refuses_retained_rows(self, n):
        data = ClientDataset(np.ones((n, 2)), np.ones(n), range(n))
        for read in (lambda: data.retained_rows, data.without_forget):
            with pytest.raises(ValueError, match="retained set empty"):
                read()

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            ClientDataset(np.zeros((3, 2)), np.zeros(3), (5,))

    @pytest.mark.parametrize("given, want", [
        ((), ()), ([], ()), (np.array([], dtype=int), ()), (iter(()), ()),
        ((3, 0), (0, 3)), (np.array([4, 1]), (1, 4)), (range(2), (0, 1)),
    ])
    def test_forget_indices_become_a_sorted_tuple_of_ints(self, given, want):
        data = ClientDataset(np.zeros((5, 2)), np.zeros(5), given)
        assert type(data.forget_indices) is tuple and data.forget_indices == want
        assert all(type(i) is int for i in data.forget_indices)

    @pytest.mark.parametrize("forget, match", [
        ((1, 1), "unique"), ([2, 2], "unique"), ((-1,), "out of range"), ((0, 5), "out of range"),
    ])
    def test_bad_forget_indices_are_refused(self, forget, match):
        with pytest.raises(ValueError, match=match):
            ClientDataset(np.zeros((5, 2)), np.zeros(5), forget)

    @pytest.mark.parametrize("layout", ["F", "strided"])
    def test_features_are_stored_c_ordered(self, layout):
        # the gradient kernels sum C-ordered rows in one order: store that one
        rows = np.arange(24.0).reshape(6, 4) / 7.0
        given = np.asfortranarray(rows) if layout == "F" else np.repeat(rows, 2, axis=1)[:, ::2]
        assert not given.flags.c_contiguous
        data = ClientDataset(given, np.ones(6), (2,))
        assert data.features.flags.c_contiguous
        np.testing.assert_array_equal(data.features, rows)


def _frozen(arr):
    arr.setflags(write=False)
    return arr


def _foreign_buffer(rows):
    # read-only, but the memory belongs to a bytearray that stays writeable
    buf = bytearray(rows.tobytes())
    return _frozen(np.frombuffer(buf).reshape(rows.shape)), buf


class TestFrozenInput:
    """A frozen input is kept; anything a later write could reach is copied."""

    ROWS = np.arange(24.0).reshape(6, 4) / 7.0

    def test_rows_of_a_frozen_stack_are_kept(self):
        feats = _frozen(np.stack([self.ROWS, 2 * self.ROWS, 3 * self.ROWS]))
        labels = _frozen(np.arange(18.0).reshape(3, 6).copy())
        data = ClientDataset(feats[1], labels[1], (2,))
        assert data.features.base is feats and data.labels.base is labels
        np.testing.assert_array_equal(data.features, 2 * self.ROWS)
        np.testing.assert_array_equal(data.labels, np.arange(6.0, 12.0))
        with pytest.raises(ValueError):
            data.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            data.labels[0] = 1.0

    @pytest.mark.parametrize("kind", ["writeable", "F", "float32", "view of writeable", "foreign"])
    def test_other_input_is_copied(self, kind):
        want = self.ROWS.astype(np.float32) if kind == "float32" else self.ROWS
        keep_alive = None
        if kind == "writeable":
            source = self.ROWS.copy()
        elif kind == "F":
            source = _frozen(np.asfortranarray(self.ROWS))
        elif kind == "float32":
            source = _frozen(want.copy())
        elif kind == "view of writeable":
            keep_alive = self.ROWS.copy()
            source = _frozen(keep_alive[:])
        else:
            source, keep_alive = _foreign_buffer(self.ROWS)
        data = ClientDataset(source, np.ones(6))
        assert not np.shares_memory(data.features, source)
        assert data.features.flags.c_contiguous and not data.features.flags.writeable
        assert data.features.dtype == np.float64
        if kind == "writeable":
            source[:] = -1.0
        elif kind == "view of writeable":
            keep_alive[:] = -1.0
        elif kind == "foreign":
            keep_alive[:] = bytes(len(keep_alive))
        np.testing.assert_array_equal(data.features, want)

    def test_writeable_labels_are_copied(self):
        labels = np.ones(6)
        data = ClientDataset(self.ROWS, labels)
        labels[:] = 0.0
        np.testing.assert_array_equal(data.labels, np.ones(6))

    def test_without_forget_keeps_the_rows_it_takes(self):
        # the certifier's retained set at the sweep-p shape: the taken rows
        # are the dataset's, not copied a second time
        rng = substream(12, "rows")
        data = ClientDataset(rng.normal(size=(2000, 100)), rng.normal(size=2000), range(0, 2000, 20))
        tracemalloc.start()
        try:
            kept = data.without_forget()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = kept.features.nbytes + kept.labels.nbytes
        assert kept.n_u == 1900 and not kept.features.flags.writeable
        np.testing.assert_array_equal(kept.features, np.delete(data.features, data.forget_indices, 0))
        assert peak < 1.2 * output


class TestValidateConfig:
    def test_bad_p(self):
        bad = config_violations(RunConfig(p=1.2))
        assert "p must lie in [0,1]" in bad

    def test_paper_defaults_accepted(self):
        cfg = RunConfig(n_clients=10, p=0.1, s=4, eps=1.0, delta=1e-5)
        assert validate_config(cfg) is cfg

    def test_empty_retained_set(self):
        cfg = RunConfig(forget_size=200, local_size=200, mode=CorrectionMode.EXACT)
        assert "retained set empty" in config_violations(cfg)

    def test_empty_retained_set_lightweight(self):
        cfg = RunConfig(forget_size=200, local_size=200, mode=CorrectionMode.LIGHTWEIGHT)
        assert "retained set empty" in config_violations(cfg)

    def test_all_violations_reported(self):
        cfg = RunConfig(p=-0.5, eps=0.0, delta=2.0)
        bad = config_violations(cfg)
        assert len(bad) >= 3
        with pytest.raises(ConfigError):
            validate_config(cfg)


class TestSubstream:
    def test_reproducible(self):
        a = substream(42, "noise").standard_normal(8)
        b = substream(42, "noise").standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_labels_independent(self):
        a = substream(42, "noise").standard_normal(8)
        b = substream(42, "routing").standard_normal(8)
        assert not np.allclose(a, b)

    def test_seed_matters(self):
        a = substream(1, "noise").standard_normal(8)
        b = substream(2, "noise").standard_normal(8)
        assert not np.allclose(a, b)


class TestConfigFile:
    def test_round_trip(self):
        cfg = RunConfig(p=0.25, sigma=3.5, mode=CorrectionMode.LIGHTWEIGHT, trace=True)
        again = config_from_text(config_to_text(cfg))
        assert again == cfg

    def test_sigma_auto(self):
        cfg = RunConfig(sigma=None)
        text = config_to_text(cfg)
        assert "sigma=auto" in text
        assert config_from_text(text).sigma is None

    def test_unknown_key_fails_closed(self):
        text = config_to_text(RunConfig()) + "mystery_knob=3\n"
        with pytest.raises(ConfigError, match="unknown key"):
            config_from_text(text)

    @pytest.mark.parametrize("text", ["p=0.1\np=0.5\n", "p=0.1\np=0.1\n", "p=x\np=0.5\n"])
    def test_repeated_key_fails_closed(self, text):
        with pytest.raises(ConfigError, match=r"line 2: key 'p' given twice"):
            config_from_text(text)

    def test_comments_and_blanks(self):
        cfg = config_from_text("# comment\n\nn_clients=4\nseed=7\n")
        assert cfg.n_clients == 4 and cfg.seed == 7

    def test_overrides(self):
        cfg = config_from_text("n_clients=4\n", overrides={"seed": 9})
        assert cfg.seed == 9


# Every setting has a caller. Adding a field to any census below is a
# decision to edit this test.
RUN_CONFIG_FIELDS = (
    "n_clients", "dim", "train_hops", "unlearn_hops", "p", "s", "eta", "stepsize_rule",
    "sigma", "eps", "delta", "grad_bound", "unlearn_client", "mode", "seed", "domain",
    "domain_radius", "trust_radius", "objective", "local_size", "forget_size",
    "batch_size", "test_size", "cal_constant", "clip", "group_edit", "trace",
)
CAPACITY_INPUT_FIELDS = (
    "eps", "delta", "n_clients", "dim", "horizon", "radius", "grad_bound", "mu", "s",
    "p", "local_size", "gamma", "bias_constant",
)
# a quadratic task's L depends on its feasible ball; the rest are constants
OBJECTIVE_FIELDS = {"QuadraticObjective": ("grad_bound",), "LogisticObjective": ()}


def test_settings_census():
    import walkforget
    from walkforget import CapacityInputs

    assert RunConfig._fields == RUN_CONFIG_FIELDS
    assert CapacityInputs._fields == CAPACITY_INPUT_FIELDS
    for name, want in OBJECTIVE_FIELDS.items():
        assert getattr(walkforget, name)._fields == want


def test_package_reexports_each_module_all():
    # each ``from .x import (...)`` in the package names exactly ``x.__all__``
    import ast
    import importlib

    import walkforget

    with open(walkforget.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    got = {
        node.module: sorted(a.name for a in node.names)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    }
    want = {name: sorted(importlib.import_module(f"walkforget.{name}").__all__) for name in got}
    assert got and got == want

"""Adam's arithmetic against the textbook update; the last good parameters of a run."""

import numpy as np
import pytest

from xmodal import autodiff as ad
from xmodal.autodiff import Tensor
from xmodal.errors import DivergenceError
from xmodal.optim import Adam, TrainingRun


class TestAdam:
    def test_update_matches_reference(self):
        rng = np.random.default_rng(0)
        shapes = [(3, 4), (5,), ()]
        params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
        frozen = Tensor(rng.normal(size=(2, 2)), requires_grad=True)  # its grad stays None
        frozen_before = frozen.data.copy()
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        opt = Adam(params + [frozen], lr=lr, betas=(b1, b2), eps=eps)

        want = [p.data.copy() for p in params]
        m = [np.zeros_like(w) for w in want]
        v = [np.zeros_like(w) for w in want]
        for step in range(1, 4):
            grads = [rng.normal(size=s) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = np.array(g, order="F")  # the update must not depend on the layout
            opt.step()
            bias1, bias2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            for i, g in enumerate(grads):
                m[i] = b1 * m[i] + (1.0 - b1) * g
                v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
                want[i] = want[i] - lr * (m[i] / bias1) / (np.sqrt(v[i] / bias2) + eps)
            for p, w in zip(params, want):
                assert np.array_equal(p.data, w)
        assert np.array_equal(frozen.data, frozen_before)

    def test_step_replaces_the_parameter_array(self):
        p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        old = p.data
        p.grad = np.ones((2, 3))
        Adam([p], lr=0.1).step()
        assert p.data is not old
        assert np.array_equal(old, np.arange(6.0).reshape(2, 3))


def _square_sum(p: Tensor) -> Tensor:
    return ad.reduce("sum", ad.mul(p, p))


class TestTrainingRun:
    def test_divergence_carries_parameters_of_last_finite_loss(self):
        w = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        other = Tensor(np.array([0.5]), requires_grad=True)
        own_opt, other_opt = Adam([w], lr=0.1), Adam([other], lr=0.1)
        run = TrainingRun([("w", w)], own_opt)
        run.minimize(own_opt, _square_sum(w), "first loss")
        before_second = w.data.copy()
        run.minimize(own_opt, _square_sum(w), "second loss")
        run.minimize(other_opt, _square_sum(other), "another optimizer's loss")
        with pytest.raises(DivergenceError, match="non-finite third loss") as exc:
            run.minimize(own_opt, ad.scale(_square_sum(w), np.inf), "third loss")
        assert [name for name, _ in exc.value.last_good] == ["w"]
        assert np.array_equal(exc.value.last_good[0][1], before_second)
        assert not np.array_equal(w.data, before_second)

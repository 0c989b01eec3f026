"""Adam's arithmetic against the textbook update."""

import numpy as np

from xmodal.autodiff import Tensor
from xmodal.optim import Adam


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

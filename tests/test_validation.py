import numpy as np
import pytest

from damplab import _validation as val
from damplab import perturbation


def svd_scaled(a, strict):
    """The definiteness rule with the spectral norm taken from an SVD."""
    s = val.sym_part(np.asarray(a, dtype=float))
    scale = max(np.linalg.norm(s, 2), 1.0e-300)
    low = np.linalg.eigvalsh(s).min()
    return low > val.TOL_PD * scale if strict else low >= -val.TOL_PSD * scale


def with_eigenvalues(rng, eigs):
    """A random symmetric matrix with the given spectrum."""
    q, _ = np.linalg.qr(rng.normal(size=(len(eigs), len(eigs))))
    return val.sym_part((q * np.asarray(eigs, dtype=float)) @ q.T)


class TestDefiniteness:
    def test_matches_svd_scaled_rule(self):
        # Indefinite, definite, rank-deficient and near-boundary spectra
        # (smallest eigenvalue within 3 TOL_PSD * scale of 0) over twelve
        # decades of scale.
        rng = np.random.default_rng(12)
        verdicts = set()
        for k in range(500):
            n = int(rng.integers(1, 7))
            eigs = rng.normal(size=n)
            if k % 4:
                eigs = np.abs(eigs)
            if k % 4 == 2:
                eigs[rng.random(n) < 0.4] = 0.0
            if k % 4 == 3:
                eigs[0] = rng.uniform(-3, 3) * val.TOL_PSD * max(eigs.max(), 1.0)
            a = 10.0 ** rng.uniform(-6, 6) * with_eigenvalues(rng, eigs)
            psd, pd = val.is_psd(a), val.is_pd(a)
            assert psd == svd_scaled(a, strict=False), (k, eigs)
            assert pd == svd_scaled(a, strict=True), (k, eigs)
            verdicts.add((bool(psd), bool(pd)))
        assert verdicts == {(False, False), (True, False), (True, True)}

    @pytest.mark.parametrize(
        "eigs, psd, pd",
        [
            ([1.0] * 5 + [-0.5 * val.TOL_PSD], True, False),
            ([1.0] * 5 + [-2.0 * val.TOL_PSD], False, False),
            ([-1.0] + [1.0] * 4 + [-0.5 * val.TOL_PSD], False, False),
            ([3.0, 1.0, 0.0], True, False),
            ([0.0, 0.0, 0.0], True, False),
            ([2.0, -1.0, 0.5], False, False),
            ([4.0, 4.0, 4.0, 2.0 * 4.0 * val.TOL_PD], True, True),
            ([4.0, 4.0, 4.0, 0.5 * 4.0 * val.TOL_PD], True, False),
        ],
        ids=["psd_margin", "beyond_margin", "indefinite_margin", "singular",
             "zero", "indefinite", "pd_margin", "inside_pd_margin"],
    )
    def test_boundary_cases(self, eigs, psd, pd):
        a = with_eigenvalues(np.random.default_rng(7), eigs)
        assert (val.is_psd(a), val.is_pd(a)) == (psd, pd)
        assert (psd, pd) == (svd_scaled(a, False), svd_scaled(a, True))

    def test_one_eigvalsh_and_no_svd(self, monkeypatch):
        # Largest |eigenvalue| of the symmetric part is its spectral norm:
        # each check and each duality flag costs one eigvalsh, no SVD.
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: calls.append("eigvalsh") or eigvalsh(a))
        for name in ("svd", "norm"):
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, name=name, **k: calls.append(name))
        a = with_eigenvalues(np.random.default_rng(3), [2.0, 1.0, 0.0])
        val.is_psd(a)
        val.is_pd(a)
        assert calls == ["eigvalsh"] * 2
        calls.clear()
        monkeypatch.setattr(perturbation, "numerical_rank", lambda s: len(s))
        s = with_eigenvalues(np.random.default_rng(4), [1.0, -2.0, 3.0]) + 1j * a
        assert perturbation.check_inverse_imag_duality(s) == (True, True)
        assert calls == ["eigvalsh"] * 2

"""Library code reports bad input and broken invariants with the typed errors
of sidshrink.errors: an assert statement is stripped under `python -O`. Every
name that the package or one of its modules exports resolves. The Gibbs chain
calls its steps through the names the benchmark's tracer wraps, and its
iteration calls no numpy.linalg or scipy.linalg wrapper but psd_sqrt's eigh;
the weights, noise level and r* call no scipy.linalg function, and the
n4sid weights take no SVD.
Every dataclass field has a reader in the library, or a named reason to
stay."""
import ast
import collections
import importlib
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import sidshrink
from sidshrink import bayes, estimation
from sidshrink.bench import draw_realization
from sidshrink.estimation import (
    SCHEMES,
    assemble,
    build_weights,
    estimate_noise,
    ls_estimate,
    noise_level,
    rank_star,
    weighted_svd,
)


def test_library_has_no_assert_statements():
    sources = sorted(Path(sidshrink.__file__).parent.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


# dataclass fields that no attribute read in src/ reaches, and what reads them
_UNREAD_FIELDS = {
    "GibbsState.selectors": "perfbench's tracer counts the chain's selector build and bytes",
    "GibbsEstimate.chain_diagnostics": "perfbench's tracer counts chain iterations by its size",
    "RunPayload.h_fp_true": "perfbench scores the kept estimates against it",
    "SelectorPair.b_t": "the acceptance suite's dense oracle",
    "SelectorPair.b_w": "the acceptance suite's dense oracle",
    "SelectorPair.n": "the acceptance suite's dense oracle",
}


def _is_dataclass_decorator(node) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def test_every_dataclass_field_has_a_reader():
    """A field counts as read when an attribute load anywhere in the library
    has its name, on whatever object: a check by name, which can miss an
    unread field that shares a name with a read one."""
    fields, reads = [], set()
    for path in sorted(Path(sidshrink.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.ClassDef) and any(
                    map(_is_dataclass_decorator, node.decorator_list)):
                fields += [f"{node.name}.{stmt.target.id}" for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
    assert len(fields) > 50
    unread = {name for name in fields if name.split(".")[1] not in reads}
    assert unread == set(_UNREAD_FIELDS)


def test_every_exported_name_resolves():
    package = Path(sidshrink.__file__).parent
    modules = [sidshrink] + [importlib.import_module(f"sidshrink.{path.stem}")
                             for path in sorted(package.glob("*.py"))
                             if path.stem != "__init__"]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("variant", ["independent", "hankel_exact"])
def test_chain_calls_its_steps_through_the_bayes_module_names(variant, monkeypatch):
    """The benchmark's tracer counts the chain's calls by wrapping these
    module globals of sidshrink.bayes; a chain that reached the functions
    another way would drop out of its trace."""
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("step_gf", "psd_sqrt", "toeplitz_project"):
        monkeypatch.setattr(bayes, name, counting(name, getattr(bayes, name)))
    rng = np.random.default_rng(0)
    t = 60
    u = rng.standard_normal(t)
    y = np.convolve(u, [0.0, 1.0, 0.5])[:t] + 0.3 * rng.standard_normal(t)
    data = assemble(u, y, 4, 4)
    ls = ls_estimate(data)
    n = 7
    bayes.run_gibbs(data, ls.h_fp_hat, ls.h_f_hat,
                    bayes.GibbsConfig(rank=1, n_total=n, n_burn=1, gf_variant=variant), rng)
    assert counts == {"step_gf": n - 1, "psd_sqrt": n - 1, "toeplitz_project": n}


@pytest.mark.parametrize("variant", ["independent", "hankel_exact"])
def test_chain_noise_update_reads_no_data_columns(variant, monkeypatch):
    """Each noise update gets f x R residue coefficients or their factor,
    one column per stacked data row, never the N columns of the residue:
    "independent" the factor C R~' with n_cols = N, "hankel_exact" C itself
    with the chain's one windows form."""
    seen = []

    def recording(state, resid, rng, gf_variant, **kwargs):
        seen.append((resid.shape, kwargs.get("n_cols"), kwargs.get("form")))
        return original(state, resid, rng, gf_variant, **kwargs)

    original = bayes.step_gf
    monkeypatch.setattr(bayes, "step_gf", recording)
    rng = np.random.default_rng(1)
    t = 90
    u = rng.standard_normal(t)
    y = np.convolve(u, [0.0, 1.0, 0.5])[:t] + 0.3 * rng.standard_normal(t)
    data = assemble(u, y, 4, 4)
    ls = ls_estimate(data)
    bayes.run_gibbs(data, ls.h_fp_hat, ls.h_f_hat,
                    bayes.GibbsConfig(rank=1, n_total=5, gf_variant=variant), rng)
    n_rows, n_cols = data.stacked.shape
    assert n_rows < n_cols
    assert [shape for shape, _, _ in seen] == [(data.f, n_rows)] * 4
    forms = [form for _, _, form in seen]
    if variant == "independent":
        assert [n for _, n, _ in seen] == [n_cols] * 4 and forms == [None] * 4
    else:
        assert [n for _, n, _ in seen] == [None] * 4
        assert isinstance(forms[0], bayes.HankelForm)
        assert all(form is forms[0] for form in forms)


def _raising(name):
    def call(*args, **kwargs):
        raise AssertionError(f"called {name}")
    return call


def _ban_functions(monkeypatch, module, allowed=()):
    """Make every function of module but the allowed ones raise when called."""
    for name in getattr(module, "__all__", dir(module)):
        if name not in allowed and callable(getattr(module, name, None)) \
                and not isinstance(getattr(module, name), type):
            monkeypatch.setattr(module, name, _raising(f"{module.__name__}.{name}"))


def test_chain_iteration_calls_no_linalg_wrapper_but_the_root_eigh(monkeypatch):
    """Each iteration calls LAPACK directly; the one numpy.linalg call left
    is the eigh inside psd_sqrt."""
    rng = np.random.default_rng(3)
    t = 80
    u = rng.standard_normal(t)
    y = np.convolve(u, [0.0, 1.0, 0.5])[:t] + 0.3 * rng.standard_normal(t)
    data = assemble(u, y, 4, 4)
    ls = ls_estimate(data)
    state = bayes.init_gibbs(ls.h_fp_hat, ls.h_f_hat, data, 2)
    monkeypatch.setattr(bayes, "init_gibbs", lambda *args: state)

    for module in (np.linalg, scipy.linalg):
        _ban_functions(monkeypatch, module, allowed=("eigh",))
    for variant in ("independent", "hankel_exact"):
        est = bayes.run_gibbs(data, ls.h_fp_hat, ls.h_f_hat,
                              bayes.GibbsConfig(rank=2, n_total=6, gf_variant=variant), rng)
        assert np.isfinite(est.h_fp_bayes).all()


def test_weights_noise_level_and_rank_star_call_no_scipy_linalg_function(monkeypatch):
    """build_weights calls LAPACK directly, and noise_level and rank_star
    call no scipy.linalg function either."""
    draw = draw_realization(0, 1, 0)
    data = assemble(draw.u, draw.y, draw.f, draw.p)
    ls = ls_estimate(data)
    g_f_hat = estimate_noise(data, ls.h_fp_hat, ls.h_f_hat).g_f_hat
    _ban_functions(monkeypatch, scipy.linalg)
    for scheme in SCHEMES:
        weights = build_weights(scheme, data, g_f_hat=g_f_hat)
        assert noise_level(weights, np.eye(data.f * data.n_o)) > 0.0
        assert rank_star(data, ls, weights, weighted_svd(ls.h_fp_hat, weights)).r_star >= 1


def test_n4sid_weights_take_no_svd(monkeypatch):
    """Under n4sid factor1 comes from the principal angles between U_f and
    Z_p, so build_weights takes no SVD of U_f' (dgesdd) or of anything else."""
    draw = draw_realization(0, 1, 0)
    data = assemble(draw.u, draw.y, draw.f, draw.p)
    for name in ("dgesdd", "dgesdd_lwork"):
        monkeypatch.setattr(estimation, name, _raising(f"estimation.{name}"))
    _ban_functions(monkeypatch, np.linalg, allowed=("eigvalsh", "qr"))
    weights = build_weights("n4sid", data)
    assert weights.factor1 is not None and weights.factor1 >= 1.0

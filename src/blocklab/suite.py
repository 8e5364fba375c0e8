"""Acceptance battery: one runner per acceptance criterion, a battery driver,
and a determinism check that replays the whole battery.

Every runner is a pure function of the seed; numeric outcomes land in the
criterion payloads, while wall-clock timings are reported separately so the
canonical payload stays byte-reproducible.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .applications import (
    LabeledDataset,
    cca,
    class_correlation_encoding,
    dcca,
    lda,
    ols,
    paired_scatter_encoding,
    pca,
    scatter_total_encoding,
    scatter_within_encoding,
)
from .block_encoding import (
    BlockEncoding,
    adjoint_encoding,
    difference_encoding,
    gram_encoding,
    product,
    trivial_encoding,
    verify,
)
from .centering import build_uc, centering_encoding, similarity_encoding
from .data_encoding import (
    hermitian_dilation,
    matrix_encoding,
    preparation_unitaries,
)
from .matrix_core import is_unitary, jsonable, qubit_count, spectral_norm, unitary_completion
from .mean_centering import mc_encoding
from .oracles import (CenteringMode, cca_pencil, centering_matrix, classical_center,
                      dcca_pencil, hermitian_extension, ols_closed_form, pencil_eigs,
                      reflection, scatters, total_scatter)
from .spectral import walk_operator

__all__ = ["CriterionOutcome", "run_battery", "run_suite", "canonical_payload", "CRITERIA",
           "BUDGETS_S", "check_composition_laws"]

# Wall-clock budget in seconds per criterion id; criteria 4 and 10 have none.
BUDGETS_S = {1: 1.0, 2: 1.0, 3: 30.0, 5: 10.0, 6: 20.0, 7: 60.0, 8: 60.0, 9: 10.0}


@dataclass
class CriterionOutcome:
    cid: int
    title: str
    passed: bool
    details: dict
    budget_s: float | None = None
    runtime_s: float = field(default=0.0, compare=False)

    def payload(self) -> dict:
        return jsonable({
            "id": self.cid,
            "title": self.title,
            "pass": self.passed,
            "details": self.details,
        })


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(salt)]))


def _f(x) -> float:
    return float(x)


# ---------------------------------------------------------------------------
# Criterion runners
# ---------------------------------------------------------------------------

def criterion_1(seed: int) -> CriterionOutcome:
    """Centering encoding reproduces the mean-removal projector exactly."""
    distances = {}
    ok = True
    for n in (2, 4, 8, 16):
        target = centering_matrix(n)
        be = centering_encoding(n)
        rep = verify(be, target, tol=1e-12)
        meta_ok = be.alpha == 1.0 and be.ancillas == 1 and be.epsilon <= 1e-12
        distances[str(n)] = _f(rep.distance_measured)
        ok = ok and rep.passed and meta_ok and rep.distance_measured <= 1e-12
    return CriterionOutcome(1, "centering encoding exactness", ok,
                            {"spectral_distance": distances})


def criterion_2(seed: int) -> CriterionOutcome:
    """The reflection unitary equals its closed form and squares to I."""
    ok = True
    worst_identity = 0.0
    worst_involution = 0.0
    for k in (1, 2, 3, 4):
        n = 1 << k
        uc = build_uc(k)
        err = np.max(np.abs(uc - reflection(n)))
        inv = np.max(np.abs(uc @ uc - np.eye(n)))
        worst_identity = max(worst_identity, _f(err))
        worst_involution = max(worst_involution, _f(inv))
        ok = ok and err <= 1e-12 and inv <= 1e-12
    return CriterionOutcome(
        2, "reflection unitary closed form", ok,
        {
            "closed_form": "(2/n) ee^T - I",
            "max_entry_error": worst_identity,
            "max_involution_error": worst_involution,
        },
    )


def criterion_3(seed: int) -> CriterionOutcome:
    """Centered-matrix encodings match the classical centering on a corpus."""
    rng = _rng(seed, 3)
    worst_quantum = 0.0
    worst_oracle = 0.0
    count = 0
    ok = True
    for n in (2, 4, 8, 16):
        c = centering_matrix(n)
        for _ in range(50):
            x = rng.standard_normal((n, n))
            products = {
                CenteringMode.CX: c @ x,
                CenteringMode.XC: x @ c,
                CenteringMode.CXC: c @ x @ c,
            }
            for mode in CenteringMode:
                entrywise = classical_center(x, mode)
                oracle_gap = np.max(np.abs(entrywise - products[mode]))
                worst_oracle = max(worst_oracle, _f(oracle_gap))
                be = mc_encoding(x, mode)
                dist = spectral_norm(entrywise - be.alpha * be.extract_block())
                worst_quantum = max(worst_quantum, _f(dist))
                ok = ok and oracle_gap <= 1e-12 and dist <= 1e-8
                count += 1
    return CriterionOutcome(
        3, "mean-centering pipeline corpus", ok,
        {
            "instances": count,
            "max_quantum_classical_distance": worst_quantum,
            "max_entrywise_vs_product": worst_oracle,
        },
    )


NODE_KINDS = {"leaf", "product", "difference", "adjoint", "dilation", "gram"}


def _obeys_law(be: BlockEncoding) -> bool:
    """Recompute a node's certificate from its children by its composition law.

    The laws are the product and linear-combination lemmas of Gilyen, Su,
    Low & Wiebe (arXiv:1806.01838), the latter for the difference node's
    exact weights +-1/2 at its children's common alpha, the Gram node's
    B^dag B bound from ||B|| <= alpha + eps, plus the register bookkeeping of
    the adjoint and dilation nodes, written out here independently of
    ``block_encoding`` and ``data_encoding``.
    Every node must also satisfy ancillas = log2(dim) - system_qubits.
    """
    ok = be.ancillas == qubit_count(be.dim) - be.system_qubits
    kids = be.children
    if be.kind == "leaf":
        return ok and not kids
    first = kids[0]
    system_qubits = first.system_qubits
    if be.kind == "product":
        u, v = kids
        ok = ok and u.system_qubits == v.system_qubits
        law = (u.alpha * v.alpha, u.ancillas + v.ancillas,
               u.alpha * v.epsilon + v.alpha * u.epsilon)
    elif be.kind == "difference":
        a, b = kids
        ok = ok and (a.alpha, a.ancillas, a.system_qubits) == (
            b.alpha, b.ancillas, b.system_qubits)
        law = (a.alpha, a.ancillas + 1, max(a.epsilon, b.epsilon))
    elif be.kind == "adjoint":
        law = (first.alpha, first.ancillas, first.epsilon)
    elif be.kind == "gram":
        a, e = first.alpha, first.epsilon
        law = (a * a, first.ancillas + 1, e * (2.0 * a + e))
    elif be.kind == "dilation":
        ok = ok and len(kids) == 1
        law = (first.alpha, first.ancillas, first.epsilon)
        system_qubits += 1
    else:
        return False
    return ok and be.system_qubits == system_qubits and (
        be.alpha, be.ancillas, be.epsilon) == law


def check_composition_laws(trees) -> tuple[int, int, set[str]]:
    """(composite nodes checked, violations, node kinds seen) over every
    distinct node of the given encoding trees."""
    seen: set[int] = set()
    stack = list(trees)
    composites = violations = 0
    kinds: set[str] = set()
    while stack:
        be = stack.pop()
        if id(be) in seen:
            continue
        seen.add(id(be))
        stack.extend(be.children)
        kinds.add(be.kind)
        composites += be.kind != "leaf"
        violations += not _obeys_law(be)
    return composites, violations, kinds


def _composition_corpus(seed: int) -> list[BlockEncoding]:
    """The pipeline trees at n <= 4, plus two levels of compositions of every
    kind over a few cached leaves; built, never materialized."""
    rng = _rng(seed, 4)
    x2, x4, y4 = (rng.standard_normal(shape) for shape in ((2, 2), (4, 4), (4, 4)))
    ds_x, ds_y = (LabeledDataset(rng.standard_normal((4, 4)), np.array([0, 0, 1, 1]))
                  for _ in range(2))
    trees = [mc_encoding(x, mode) for x in (x2, x4) for mode in CenteringMode]
    trees += [
        similarity_encoding(4),
        similarity_encoding(np.array([1, 0, 1, 1]), 8),
        scatter_total_encoding(x4),
        scatter_within_encoding(ds_x),
        paired_scatter_encoding(x4, y4),
        scatter_total_encoding(np.vstack([x4, y4])),  # the CCA numerator
        class_correlation_encoding(ds_x, ds_y),
    ]

    def column(dim):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return v / np.linalg.norm(v)

    leaves = [
        trivial_encoding(unitary_completion(column(2), 2)),
        matrix_encoding(rng.standard_normal((2, 2))),
        BlockEncoding(unitary_completion(column(4), 4), alpha=1.5, ancillas=1,
                      epsilon=1e-3, system_qubits=1),
        centering_encoding(2),
    ]

    def grow(be):
        adj = adjoint_encoding(be)
        return [
            adj,
            product(be, adj),
            product(adj, be),
            difference_encoding(be, adj),
            hermitian_dilation(be),
            gram_encoding(be),
            gram_encoding(adj),
        ]

    level = leaves
    for _ in range(2):
        level = [node for be in level for node in grow(be)]
        level += [product(a, b) for a, b in zip(level, level[1:])
                  if a.system_qubits == b.system_qubits and a.ancillas + b.ancillas <= 8]
        trees += level
    return trees


def criterion_4(seed: int) -> CriterionOutcome:
    """Every node of every composition tree obeys its composition law."""
    composites, violations, kinds = check_composition_laws(_composition_corpus(seed))
    ok = composites >= 500 and violations == 0 and kinds == NODE_KINDS
    return CriterionOutcome(
        4, "composition bookkeeping", ok,
        {"compositions": composites, "violations": violations},
    )


def criterion_5(seed: int) -> CriterionOutcome:
    """Data encodings declare the Frobenius norm and reproduce the matrix."""
    rng = _rng(seed, 5)
    worst_alpha = 0.0
    worst_dist = 0.0
    unitary_ok = True
    ok = True
    sizes = (2, 4, 8)
    for i in range(50):
        n = sizes[i % 3]
        x = rng.standard_normal((n, n))
        be = matrix_encoding(x)
        alpha_gap = abs(be.alpha - np.linalg.norm(x))
        dist = spectral_norm(x - be.alpha * be.extract_block())
        rows, w = preparation_unitaries(x)
        u_ok = all(is_unitary(r, 1e-10) for r in rows) and is_unitary(w, 1e-10)
        worst_alpha = max(worst_alpha, _f(alpha_gap))
        worst_dist = max(worst_dist, _f(dist))
        unitary_ok = unitary_ok and u_ok
        ok = ok and alpha_gap <= 1e-12 and dist <= 1e-9 and u_ok
    return CriterionOutcome(
        5, "data-matrix encoding realization", ok,
        {
            "instances": 50,
            "max_alpha_gap": worst_alpha,
            "max_block_distance": worst_dist,
            "preparations_unitary": unitary_ok,
        },
    )


def _random_dataset(rng: np.random.Generator, n: int, classes: int,
                    features: int | None = None) -> LabeledDataset:
    feat = features if features is not None else n
    x = np.zeros((n, n))
    x[:feat] = rng.standard_normal((feat, n))
    sizes = [n // classes] * classes
    labels = np.concatenate([np.full(s, k) for k, s in enumerate(sizes)])
    return LabeledDataset(x, labels)


def criterion_6(seed: int) -> CriterionOutcome:
    """Scatter identities hold between independent constructions."""
    rng = _rng(seed, 6)
    worst_total = 0.0
    worst_split = 0.0
    worst_within = 0.0
    ok = True
    for i in range(50):
        ds = _random_dataset(rng, 8, 2 if i % 2 == 0 else 4)
        s_t, s_w, s_b = scatters(ds)
        st_be = scatter_total_encoding(ds.x)
        sw_be = scatter_within_encoding(ds)
        d_total = spectral_norm(s_t - st_be.alpha * st_be.extract_block())
        d_within = spectral_norm(s_w - sw_be.alpha * sw_be.extract_block())
        d_split = spectral_norm(s_t - (s_b + s_w))
        worst_total = max(worst_total, _f(d_total))
        worst_within = max(worst_within, _f(d_within))
        worst_split = max(worst_split, _f(d_split))
        ok = ok and d_total <= 1e-7 and d_within <= 1e-7 and d_split <= 1e-7
    return CriterionOutcome(
        6, "scatter identities", ok,
        {
            "instances": 50,
            "max_total_scatter_distance": worst_total,
            "max_within_scatter_distance": worst_within,
            "max_split_identity_distance": worst_split,
        },
    )


def criterion_7(seed: int) -> CriterionOutcome:
    """Walk eigenphases carry the spectrum; phase estimation resolves it."""
    rng = _rng(seed, 7)
    ok = True

    # full eigenphase multisets on small encodings
    worst_cos = 0.0
    small_cases = [(centering_encoding(4), centering_matrix(4))]
    x = rng.standard_normal((4, 4))
    small_cases.append((hermitian_dilation(matrix_encoding(x)), hermitian_extension(x)))
    x4 = rng.standard_normal((4, 4))
    small_cases.append((scatter_total_encoding(x4), total_scatter(x4)))
    for be, target in small_cases:
        w = walk_operator(be)
        ok = ok and is_unitary(w, 1e-10)
        cosines = np.cos(np.angle(np.linalg.eigvals(w)))
        for lam in np.linalg.eigvalsh((target + target.conj().T) / 2):
            gap = np.min(np.abs(cosines - lam / be.alpha))
            worst_cos = max(worst_cos, _f(gap))
            ok = ok and gap <= 1e-8

    # quadratic eigenphase identity on the n = 8 scatter walk (eight qubits, no dilation)
    x8 = rng.standard_normal((8, 8))
    st = scatter_total_encoding(x8)
    w = walk_operator(st)
    lam8, vec8 = np.linalg.eigh(total_scatter(x8))
    worst_resid = 0.0
    for j in range(8):
        psi = np.zeros(w.shape[0], dtype=complex)
        psi[:8] = vec8[:, j]
        w_psi = w @ psi
        resid = w @ w_psi - 2.0 * (lam8[j] / st.alpha) * w_psi + psi
        worst_resid = max(worst_resid, _f(np.linalg.norm(resid)))
    ok = ok and worst_resid <= 1e-8

    # eigenvalue recovery through phase estimation
    t_bits = 8
    worst_ratio = 0.0
    for _ in range(20):
        x = rng.standard_normal((8, 8))
        res = pca(x, d=3, t_bits=t_bits)
        lam = np.sort(np.linalg.eigvalsh(total_scatter(x)))[::-1][:3]
        bound = np.linalg.norm(x) ** 2 * 2.0 ** (-t_bits)
        delta = np.max(np.abs(res.eigenvalues - lam))
        worst_ratio = max(worst_ratio, _f(delta / bound))
        ok = ok and delta <= bound
    return CriterionOutcome(
        7, "walk eigenphases and phase estimation", ok,
        {
            "max_eigenphase_gap": worst_cos,
            "max_quadratic_identity_residual": worst_resid,
            "max_pca_delta_over_bound": worst_ratio,
        },
    )


def _clean_cut(vals: np.ndarray, d: int, gap: float = 1e-6) -> int:
    """Largest k <= d with a clear spectral gap after position k-1."""
    for k in range(d, 0, -1):
        if k == len(vals) or vals[k - 1] - vals[k] > gap:
            return k
    return 0


def _subspace_angle(a: np.ndarray, b: np.ndarray) -> float:
    angles = scipy.linalg.subspace_angles(a, b)
    return _f(np.max(angles)) if angles.size else 0.0


def criterion_8(seed: int) -> CriterionOutcome:
    """Pencil pipelines agree with a dense classical oracle."""
    rng = _rng(seed, 8)
    d = 2
    worst_val = 0.0
    worst_angle = 0.0
    ok = True

    def compare(result, a_cl, b_cl, d_req):
        nonlocal worst_val, worst_angle, ok
        dim = a_cl.shape[0]
        extended = min(dim, d_req + 4)
        oracle_vals, oracle_vecs = pencil_eigs(a_cl, b_cl, extended)
        gap_val = np.max(np.abs(result.eigenvalues[:d_req] - oracle_vals[:d_req]))
        worst_val = max(worst_val, _f(gap_val))
        ok = ok and gap_val <= 1e-6
        k = _clean_cut(oracle_vals, d_req)
        if k >= 1:
            angle = _subspace_angle(result.eigenvectors[:, :k], oracle_vecs[:, :k])
            worst_angle = max(worst_angle, angle)
            ok = ok and angle <= 1e-5

    for i in range(50):
        ds = _random_dataset(rng, 8, 2 if i % 2 == 0 else 4, features=5 + (i % 4))
        s_t, s_w, _ = scatters(ds)
        compare(lda(ds, d), s_t, s_w, d)
    for i in range(50):
        x = np.zeros((8, 8))
        y = np.zeros((8, 8))
        x[:3] = rng.standard_normal((3, 8))
        y[:3] = rng.standard_normal((3, 8))
        compare(cca(x, y, d), *cca_pencil(x, y), d)
    for i in range(50):
        feat = 3
        classes = 2 if i % 2 == 0 else 4
        ds_x = _random_dataset(rng, 8, classes, features=feat)
        ds_y = _random_dataset(rng, 8, classes, features=feat)
        compare(dcca(ds_x, ds_y, d), *dcca_pencil(ds_x.x, ds_y.x, ds_x.labels), d)

    # single-class degeneracy: the class-correlation chain must vanish
    ds1x = LabeledDataset(rng.standard_normal((8, 8)), np.zeros(8, dtype=int))
    ds1y = LabeledDataset(rng.standard_normal((8, 8)), np.zeros(8, dtype=int))
    chain = class_correlation_encoding(ds1x, ds1y)
    degenerate = _f(np.max(np.abs(chain.alpha * chain.extract_block())))
    ok = ok and degenerate <= 1e-12
    return CriterionOutcome(
        8, "pencil pipelines vs classical oracle", ok,
        {
            "instances": 150,
            "max_eigenvalue_gap": worst_val,
            "max_principal_angle": worst_angle,
            "single_class_chain_max": degenerate,
        },
    )


def criterion_9(seed: int) -> CriterionOutcome:
    """Least-squares paths agree, including rank-deficient designs."""
    rng = _rng(seed, 9)
    worst = 0.0
    deficient = 0
    ok = True
    c = centering_matrix(8)
    for i in range(50):
        x = rng.standard_normal((8, 8))
        if i % 10 == 0:
            x[:, 3] = x[:, 1]
            x[:, 6] = x[:, 2]
        y = rng.standard_normal(8)
        reg = ols(x, y)
        gap = np.max(np.abs(reg.beta_hat - ols_closed_form(x, y)))
        worst = max(worst, _f(gap))
        if reg.effective_rank < 7:
            deficient += 1
        resid_check = abs(reg.residual_norm - np.linalg.norm(c @ x @ reg.beta_hat - y))
        ok = ok and gap <= 1e-8 and resid_check <= 1e-10
    ok = ok and deficient >= 5
    return CriterionOutcome(
        9, "least-squares path agreement", ok,
        {"instances": 50, "max_beta_gap": worst, "rank_deficient_count": deficient},
    )


def criterion_10(seed: int) -> CriterionOutcome:
    """Projector structure of every constructed centering block: total
    centering of power-of-two and other sample counts, and per-class
    centering of labeled samples.  Its rank is the sample count minus the
    class count; padded slots add zero eigenvalues."""
    blocks = []
    for n in (2, 4, 8, 16, 3, 5, 6, 12):
        be = centering_encoding(n)
        blocks.append((be.alpha * be.extract_block(), n - 1))
    for sizes in ((2, 2), (4, 4), (2, 4), (1, 3)):
        be = centering_encoding(np.repeat(np.arange(len(sizes)), sizes))
        blocks.append((be.alpha * be.extract_block(), sum(sizes) - len(sizes)))
    worst = 0.0
    ok = True
    for blk, rank in blocks:
        n = blk.shape[0]
        idem = np.max(np.abs(blk @ blk - blk))
        sym = np.max(np.abs(blk - blk.T))
        annihilate = np.max(np.abs(blk @ np.ones(n)))
        spectrum = np.sort(np.linalg.eigvalsh((blk + blk.conj().T) / 2))
        spec_target = np.concatenate([np.zeros(n - rank), np.ones(rank)])
        spec_gap = np.max(np.abs(spectrum - spec_target))
        worst = max(worst, _f(max(idem, sym, annihilate, spec_gap)))
        ok = ok and max(idem, sym, annihilate, spec_gap) <= 1e-10
    return CriterionOutcome(
        10, "centering projector properties", ok,
        {"blocks": len(blocks), "max_property_defect": worst},
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_battery(seed: int) -> list[CriterionOutcome]:
    """Run criteria 1..10 for one seed."""
    outcomes = []
    for fn in CRITERIA:
        t0 = time.perf_counter()
        out = fn(seed)
        out.runtime_s = time.perf_counter() - t0
        out.budget_s = BUDGETS_S.get(out.cid)
        outcomes.append(out)
    return outcomes


def canonical_payload(outcomes: list[CriterionOutcome]) -> str:
    """Deterministic JSON for the numeric outcomes (no timings)."""
    return json.dumps([o.payload() for o in outcomes], sort_keys=True)


def run_suite(seed: int = 42) -> dict:
    """Full acceptance run: criteria 1..10 twice, plus the determinism check.

    The returned document separates reproducible results from the timing
    block; comparing two runs after dropping ``timing`` must give identical
    bytes, which is itself criterion 11.
    """
    start = time.perf_counter()
    first = run_battery(seed)
    second = run_battery(seed)
    deterministic = canonical_payload(first) == canonical_payload(second)
    all_pass_core = all(o.passed for o in first)
    determinism = CriterionOutcome(
        11, "repeat-run determinism", deterministic and all_pass_core,
        {"identical_payloads": deterministic, "core_criteria_pass": all_pass_core},
    )
    outcomes = first + [determinism]
    doc = {
        "suite": {
            "seed": int(seed),
            "criteria": [o.payload() for o in outcomes],
            "all_pass": all(o.passed for o in outcomes),
        },
        "timing": {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "wall_time_s": time.perf_counter() - start,
            "per_criterion_s": {str(o.cid): o.runtime_s for o in first},
            "budgets_s": {str(o.cid): o.budget_s for o in first if o.budget_s},
        },
    }
    return doc

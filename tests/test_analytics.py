"""Statistics layer: selection by correlation, model fit, CV, ROC."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from cryscreen.analytics import (
    IRLS_MAX_ITER,
    IRLS_TOL,
    FeatureMatrix,
    ScreeningModel,
    _sigmoid,
    assign_patient_folds,
    cross_validate,
    roc_auc,
    select_consistent_features,
    sensitivity_at_specificity,
    train_logreg,
)
from cryscreen.pipeline import FEATURE_COLUMNS


def matrix_of(X, y, patients=None, sites=None, names=None):
    X = np.asarray(X, dtype=np.float64)
    n, d = X.shape
    return FeatureMatrix(
        X=X,
        labels=np.asarray(y),
        feature_names=names or [f"f{j}" for j in range(d)],
        patient_ids=np.array(patients or [f"p{i}" for i in range(n)], dtype=object),
        sites=np.array(sites or ["ESUTH"] * n, dtype=object),
        paths=np.array([f"r{i}.wav" for i in range(n)], dtype=object),
    )


def test_feature_matrix_subsetting():
    m = matrix_of([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [0, 1, 0])
    rows = m.subset_rows(np.array([True, False, True]))
    assert rows.X.shape == (2, 2)
    assert rows.patient_ids.tolist() == ["p0", "p2"]
    cols = m.subset_features(["f1"])
    assert cols.X.tolist() == [[2.0], [4.0], [6.0]]
    # columns come in the order they are named
    swapped = m.subset_features(["f1", "f0"])
    assert swapped.feature_names == ["f1", "f0"] and swapped.X[0].tolist() == [2.0, 1.0]
    with pytest.raises(ValueError):
        m.subset_features(["missing"])


def test_subset_rows_keeps_every_field_aligned():
    m = FeatureMatrix(
        ["f0"], np.arange(5.0)[:, None], np.array([0, 1, 1, 0, 1]),
        np.array(["A", "B", "A", "C", "B"], dtype=object), np.array(["p3", "p1", "p3", "p0", "p2"], dtype=object),
        np.array([f"r{i}.wav" for i in range(5)], dtype=object),
    )
    rows = m.subset_rows(m.sites != "A")
    assert rows.X[:, 0].tolist() == [1.0, 3.0, 4.0]
    assert rows.labels.tolist() == [1, 0, 1]
    assert rows.sites.tolist() == ["B", "C", "B"]
    assert rows.patient_ids.tolist() == ["p1", "p0", "p2"]
    assert rows.paths.tolist() == ["r1.wav", "r3.wav", "r4.wav"]
    assert rows.paths.dtype == object and rows.feature_names == ["f0"]
    assert len(m.subset_rows(np.zeros(5, dtype=bool)).paths) == 0


def _selection_fixture():
    rng = np.random.default_rng(11)
    per_site = 60
    sites = ["A"] * per_site + ["B"] * per_site
    y = np.tile([0, 1], per_site)
    cols = {}
    # f_cons tracks the label the same way at both sites; f_flip reverses
    cols["f_cons"] = y * 2.0 + 0.3 * rng.standard_normal(2 * per_site)
    flip = np.concatenate([np.ones(per_site), -np.ones(per_site)])
    cols["f_flip"] = flip * y + 0.1 * rng.standard_normal(2 * per_site)
    cols["f_neg"] = -1.5 * y + 0.3 * rng.standard_normal(2 * per_site)
    cols["f_const_at_A"] = np.concatenate([np.zeros(per_site), rng.standard_normal(per_site)])
    X = np.column_stack(list(cols.values()))
    return matrix_of(X, y, sites=sites, names=list(cols)), list("AB")


def test_selection_keeps_only_sign_consistent():
    m, sites = _selection_fixture()
    report = select_consistent_features(m, sites)
    assert report.selected == ["f_cons", "f_neg"]
    assert report.directions == {"f_cons": "positive", "f_neg": "negative"}
    # the flipped feature shows strong but opposite correlations
    assert report.correlations["f_flip"]["A"] > 0.5
    assert report.correlations["f_flip"]["B"] < -0.5
    assert report.correlations["f_const_at_A"]["A"] is None


def test_selection_validates_sites():
    m, _ = _selection_fixture()
    with pytest.raises(ValueError, match="at least two sites"):
        select_consistent_features(m, ["A"])
    # a site compared with itself always agrees, so selection would keep all
    with pytest.raises(ValueError, match="site A is listed twice"):
        select_consistent_features(m, ["A", "B", "A"])
    with pytest.raises(ValueError, match="has no rows"):
        select_consistent_features(m, ["A", "Z"])
    single = matrix_of([[1.0], [2.0]], [1, 1], sites=["A", "B"])
    with pytest.raises(ValueError, match="single class"):
        select_consistent_features(single, ["A", "B"])
    # two rows of two classes always correlate at +1 or -1
    two = matrix_of([[1.0], [2.0], [1.0], [2.0], [3.0]], [0, 1, 0, 1, 0], sites=["A", "A", "B", "B", "B"])
    with pytest.raises(ValueError, match="^site A has 2 rows; a correlation needs at least 3$"):
        select_consistent_features(two, ["A", "B"])


def test_selection_matches_hand_correlation():
    x = [1.0, 2.0, 3.0, 4.0, 4.0, 3.0, 2.0, 1.0]
    m = matrix_of(np.array(x)[:, None], [0, 0, 1, 1, 1, 1, 0, 0], sites=["A"] * 4 + ["B"] * 4)
    report = select_consistent_features(m, ["A", "B"])
    # cov 0.5 over sqrt(1.25 * 0.25) at each site
    assert report.correlations["f0"]["A"] == pytest.approx(2.0 / np.sqrt(5.0), abs=1e-15)
    assert report.correlations["f0"]["B"] == pytest.approx(2.0 / np.sqrt(5.0), abs=1e-15)
    assert report.directions == {"f0": "positive"}


def test_constant_column_is_undefined_however_its_mean_rounds():
    # three 0.7s average to a float a hair off 0.7, so the centered column
    # is not exactly 0, yet it does not vary with the label at all
    x = np.array([0.7, 0.7, 0.7, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
    y = [0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 1]
    m = matrix_of(x[:, None], y, sites=["A"] * 3 + ["B"] * 4 + ["C"] * 4)
    report = select_consistent_features(m, ["A", "B", "C"])
    assert report.correlations["f0"] == {"A": None, "B": 1.0, "C": 1.0}
    assert report.selected == [] and report.directions == {}


PLANTED = (0.1, 0.7, 123.456)


@st.composite
def planted_sites(draw):
    """Three sites of 3-30 rows each, with both labels at each; random
    columns, and for each planted value one column constant at it at a
    drawn site and one that differs from it there in one row by one ulp."""
    counts = draw(st.lists(st.integers(3, 30), min_size=3, max_size=3))
    labels = []
    for n in counts:
        y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        y[:2] = [0, 1]
        labels += y
    sites = [s for s, n in zip("ABC", counts) for _ in range(n)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((len(sites), 2 + 2 * len(PLANTED))) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    X += np.asarray(labels)[:, None] * rng.standard_normal(X.shape[1])
    at = np.array(sites)
    constant = {}
    for k, value in enumerate(PLANTED):
        site = draw(st.sampled_from("ABC"))
        rows = np.flatnonzero(at == site)
        X[rows, 2 + 2 * k] = value
        constant[f"f{2 + 2 * k}"] = site
        X[rows, 3 + 2 * k] = value
        X[rows[draw(st.integers(0, len(rows) - 1))], 3 + 2 * k] = np.nextafter(value, np.inf)
    return matrix_of(X, labels, sites=sites), constant


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=planted_sites())
def test_selection_correlations_match_numpy_and_constants_are_none(case):
    m, constant = case
    report = select_consistent_features(m, ["A", "B", "C"])
    at = np.array(m.sites)
    for j, name in enumerate(m.feature_names):
        rs = report.correlations[name]
        for site, r in rs.items():
            if constant.get(name) == site:
                assert r is None
                continue
            rows = at == site
            assert abs(r - np.corrcoef(m.X[rows, j], m.labels[rows])[0, 1]) <= 1e-12
        signs = {None if r is None else np.sign(r) for r in rs.values()}
        assert (name in report.selected) == (signs in ({1.0}, {-1.0}))
    assert not set(constant) & set(report.selected)


def test_logreg_separable_perfect_ranking():
    x = np.linspace(-2.0, 2.0, 40).reshape(-1, 1)
    y = (x[:, 0] > 0).astype(int)
    model = train_logreg(matrix_of(x, y), reg_strength=0.01)
    curve = roc_auc(model.predict_proba(x), y)
    assert curve.auc == 1.0
    assert model.weights[0] > 0


def test_logreg_bias_matches_base_rate():
    X = np.full((40, 1), 3.7)
    y = np.array([1, 1, 1, 0] * 10)
    model = train_logreg(matrix_of(X, y), reg_strength=1.0)
    assert abs(model.weights[0]) < 1e-8
    assert model.bias == pytest.approx(np.log(3.0), abs=1e-4)


def test_logreg_regularization_shrinks():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((200, 3))
    z = X @ np.array([1.0, -2.0, 0.5])
    y = (rng.uniform(size=200) < 1.0 / (1.0 + np.exp(-z))).astype(int)
    loose = train_logreg(matrix_of(X, y), reg_strength=0.01)
    tight = train_logreg(matrix_of(X, y), reg_strength=100.0)
    assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


def test_logreg_probabilities_bounded():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((50, 2)) * 50.0
    y = (X[:, 0] > 0).astype(int)
    model = train_logreg(matrix_of(X, y), reg_strength=0.1)
    p = model.predict_proba(X)
    assert np.all((p >= 0.0) & (p <= 1.0))


def two_mask_sigmoid(z):
    """The logistic function by the two boolean masks the model first used."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("n", [1, 7, 64, 2401])
def test_sigmoid_equals_the_two_mask_form_bit_for_bit(n):
    rng = np.random.default_rng(n)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 700.5, -700.5, 745.2, -745.2, 1e308, -1e308,
                      5e-324, -5e-324, 36.8, -36.8])
    z = np.concatenate([rng.standard_normal(n) * 10.0, rng.standard_normal(n) * 800.0, edges])
    got, want = _sigmoid(z), two_mask_sigmoid(z)
    # int64 views compare NaN payloads and the sign of zero too
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.signbit(got[np.isnan(z)]).tolist() == [False, True]


def test_model_json_round_trip():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((60, 3))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    model = train_logreg(matrix_of(X, y), reg_strength=0.5)
    back = ScreeningModel.from_json_dict(model.to_json_dict())
    assert np.allclose(back.predict_proba(X), model.predict_proba(X))
    assert back.feature_names == model.feature_names


def test_patient_folds_never_split_and_balance():
    rng = np.random.default_rng(9)
    for trial in range(30):
        n_pat = int(rng.integers(12, 40))
        pats, labs = [], []
        pat_label = {}
        for p in range(n_pat):
            lab = int(rng.integers(0, 2)) if p >= 8 else p % 2  # both classes present
            pat_label[f"pt{p}"] = lab
            for _ in range(int(rng.integers(1, 4))):
                pats.append(f"pt{p}")
                labs.append(lab)
        folds = 4
        row_fold = assign_patient_folds(np.array(pats, dtype=object), np.array(labs), folds)
        # one fold per patient, exhaustively
        rows = {}
        for pid, f in zip(pats, row_fold):
            rows.setdefault(pid, set()).add(int(f))
        assert all(len(v) == 1 for v in rows.values())
        # stratification: per class, fold patient counts within 1
        for cls in (0, 1):
            counts = np.zeros(folds, dtype=int)
            for pid, lab in pat_label.items():
                if lab == cls:
                    counts[next(iter(rows[pid]))] += 1
            assert counts.max() - counts.min() <= 1


def test_patient_folds_requires_enough_patients():
    pats = np.array(["a", "b", "c", "d"], dtype=object)
    labs = np.array([0, 0, 0, 1])
    with pytest.raises(ValueError, match="need at least"):
        assign_patient_folds(pats, labs, 2)


def dict_patient_folds(patient_ids, labels, folds):
    """The patient -> fold dict of the rule as first written, one patient at a time."""
    patient_label = {}
    for pid, lab in zip(patient_ids, labels):
        patient_label[pid] = max(patient_label.get(pid, 0), int(lab))
    assignment = {}
    for cls in (0, 1):
        members = sorted(p for p, lab in patient_label.items() if lab == cls)
        if len(members) < folds:
            raise ValueError(f"class {cls} has {len(members)} patients; need at least {folds} for {folds}-fold CV")
        for i, pid in enumerate(members):
            assignment[pid] = i % folds
    return assignment


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    rows=st.lists(st.tuples(st.text(alphabet="ab\x00é1-", max_size=4), st.integers(0, 1)), min_size=1, max_size=60),
    folds=st.integers(2, 11),
)
def test_patient_folds_equal_the_dict_rule(rows, folds):
    # unsorted IDs, repeated rows, patients with rows of both labels, and
    # IDs that a fixed-width string dtype would change (a trailing NUL)
    pats = np.array([p for p, _ in rows], dtype=object)
    labs = np.array([lab for _, lab in rows])
    try:
        want = dict_patient_folds(pats, labs, folds)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            assign_patient_folds(pats, labs, folds)
        assert str(got.value) == str(exc)
        return
    row_fold = assign_patient_folds(pats, labs, folds)
    assert row_fold.tolist() == [want[p] for p in pats]


def test_cross_validate_tie_goes_to_strongest_penalty():
    # perfectly separable single feature: every penalty scores AUC 1.0 in
    # every fold, so the tie rule must pick the largest one
    x = np.concatenate([np.linspace(-3, -1, 12), np.linspace(1, 3, 12)]).reshape(-1, 1)
    y = np.array([0] * 12 + [1] * 12)
    pats = [f"p{i}" for i in range(24)]
    m = matrix_of(x, y, patients=pats)
    result = cross_validate(m, folds=3, reg_grid=(0.1, 1.0, 10.0))
    assert result.best_reg_strength == 10.0
    assert all(a == 1.0 for aucs in result.fold_aucs.values() for a in aucs)
    assert result.mean_aucs[10.0] == 1.0


def planted_matrix(seed, n_patients=120):
    """Patients of one label with one or two rows at one of three sites.

    A few columns shift with the label, the rest are noise; every column
    has its own scale and offset, so standardization matters.
    """
    rng = np.random.default_rng([seed, 9])
    d = len(FEATURE_COLUMNS)
    shift = np.where(rng.random(d) < 0.3, rng.choice([-0.8, 0.8], size=d), 0.0)
    scale = 10.0 ** rng.uniform(-1.0, 3.0, size=d)
    offset = rng.uniform(-3.0, 3.0, size=d) * scale
    X, y, patients, sites = [], [], [], []
    for p in range(n_patients):
        label = int(rng.random() < 0.5)
        for _ in range(int(rng.integers(1, 3))):
            X.append((label * shift + rng.standard_normal(d)) * scale + offset)
            y.append(label)
            patients.append(f"pt{p:03d}")
            sites.append(("ESUTH", "LASUTH", "SCDM")[p % 3])
    return matrix_of(np.array(X), np.array(y), patients=patients, sites=sites, names=list(FEATURE_COLUMNS))


def reference_cross_validate(matrix, folds, reg_grid):
    """The one-fit-at-a-time loop: train_logreg on each (penalty, fold)."""
    row_fold = assign_patient_folds(matrix.patient_ids, matrix.labels, folds)
    fold_aucs = {lam: [] for lam in reg_grid}
    for lam in reg_grid:
        for f in range(folds):
            val_mask = row_fold == f
            model = train_logreg(matrix.subset_rows(~val_mask), lam)
            val = matrix.subset_rows(val_mask)
            fold_aucs[lam].append(roc_auc(model.predict_proba(val.X), val.labels).auc)
    mean_aucs = {lam: float(np.mean(v)) for lam, v in fold_aucs.items()}
    return max(reg_grid, key=lambda lam: (mean_aucs[lam], lam)), fold_aucs, mean_aucs


def reference_train_logreg(X, labels, reg_strength):
    """Standardization and IRLS written out in one piece: weights, bias, mean, std."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n, d = X.shape
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    Z = np.column_stack([(X - mean) / std, np.ones(n)])
    w = np.zeros(d + 1)
    penalty = np.full(d + 1, float(reg_strength))
    penalty[d] = 0.0
    for _ in range(IRLS_MAX_ITER):
        p = _sigmoid(Z @ w)
        grad = Z.T @ (p - y) + penalty * w
        if np.linalg.norm(grad) < IRLS_TOL:
            break
        r = np.clip(p * (1.0 - p), 1e-10, None)
        hess = (Z * r[:, None]).T @ Z + np.diag(penalty)
        w = w - np.linalg.solve(hess, grad)
    return w[:d], float(w[d]), mean, std


PLANTED_CASES = [(seed, cols) for seed in (1, 2) for cols in ("all", "eight")]


def planted_case(seed, cols):
    matrix = planted_matrix(seed)
    if cols == "eight":
        matrix = matrix.subset_features(FEATURE_COLUMNS[2::4][:8])
        assert matrix.X.shape[1] == 8
    return matrix


@pytest.mark.parametrize("seed, cols", PLANTED_CASES)
def test_cross_validate_equals_one_fit_per_penalty_and_fold(seed, cols):
    matrix = planted_case(seed, cols)
    reg_grid = (10.0, 0.1, 100.0, 1.0)
    best, fold_aucs, mean_aucs = reference_cross_validate(matrix, 10, reg_grid)
    result = cross_validate(matrix, folds=10, reg_grid=reg_grid)
    assert result.fold_aucs == fold_aucs
    assert list(result.fold_aucs) == list(reg_grid)
    assert result.mean_aucs == mean_aucs
    assert result.best_reg_strength == best
    # the folds are not trivially separable, so the scores carry information
    assert 0.6 < max(mean_aucs.values()) < 1.0


def separable_matrix():
    """60 rows split by a hyperplane through four columns of unlike scales.

    Every training fold is separable, so the weakest penalties leave the
    weights far from zero, yet no fold's fit finds the hyperplane exactly:
    validation AUCs fall under 1 and rest on the weights.
    """
    rng = np.random.default_rng(0)
    X = rng.standard_normal((60, 4)) * [1.0, 10.0, 100.0, 0.1]
    s = (X / X.std(axis=0)) @ rng.standard_normal(4)
    return matrix_of(X, (s > np.median(s)).astype(int))


SEPARABLE_GRID = (100.0, 1.0, 0.01, 1e-4, 1e-6)

# the warm start's riskiest inputs: a path from a strong penalty to one
# whose weights are far from it on separable rows, and grids of one
# penalty, where no fit has another to start from
WARM_START_CASES = [("separable", 4, SEPARABLE_GRID), ("separable", 4, (1e-6,)), ("planted", 10, (0.1,))]


@pytest.mark.parametrize("rows, folds, reg_grid", WARM_START_CASES)
def test_cross_validate_equals_one_fit_per_penalty_on_risky_inputs(rows, folds, reg_grid):
    matrix = separable_matrix() if rows == "separable" else planted_case(1, "eight")
    best, fold_aucs, mean_aucs = reference_cross_validate(matrix, folds, reg_grid)
    result = cross_validate(matrix, folds=folds, reg_grid=reg_grid)
    assert result.fold_aucs == fold_aucs
    assert result.mean_aucs == mean_aucs
    assert result.best_reg_strength == best
    assert min(a for aucs in fold_aucs.values() for a in aucs) < 1.0


@pytest.mark.parametrize("rows, folds, reg_grid", [("separable", 4, SEPARABLE_GRID),
                                                   ("planted", 10, (0.1, 1.0, 10.0, 100.0))])
def test_cross_validate_scores_a_grid_as_its_reverse(rows, folds, reg_grid):
    matrix = separable_matrix() if rows == "separable" else planted_case(2, "eight")
    _, fold_aucs, _ = reference_cross_validate(matrix, folds, reg_grid)
    forward = cross_validate(matrix, folds=folds, reg_grid=reg_grid)
    backward = cross_validate(matrix, folds=folds, reg_grid=reg_grid[::-1])
    assert list(forward.fold_aucs) == list(reg_grid)
    assert list(backward.fold_aucs) == list(reg_grid[::-1])
    assert all(forward.fold_aucs[lam] == backward.fold_aucs[lam] == fold_aucs[lam] for lam in reg_grid)
    assert forward.best_reg_strength == backward.best_reg_strength
    # a penalty listed twice is fit and scored once per fold
    assert cross_validate(matrix, folds=folds, reg_grid=reg_grid + reg_grid[:1]).fold_aucs == forward.fold_aucs


@pytest.mark.parametrize("seed, cols", PLANTED_CASES)
def test_train_logreg_equals_the_formula_bit_for_bit(seed, cols):
    matrix = planted_case(seed, cols)
    for lam in (0.1, 10.0):
        model = train_logreg(matrix, lam)
        weights, bias, mean, std = reference_train_logreg(matrix.X, matrix.labels, lam)
        assert model.weights.tobytes() == weights.tobytes()
        assert model.bias == bias
        assert model.mean.tobytes() == mean.tobytes()
        assert model.std.tobytes() == std.tobytes()


def test_roc_hand_cases():
    perfect = roc_auc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
    assert perfect.auc == 1.0
    reverse = roc_auc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0]))
    assert reverse.auc == 0.0
    tied = roc_auc(np.array([1.0, 1.0, 0.0, 0.0]), np.array([1, 0, 1, 0]))
    assert tied.auc == 0.5


def test_roc_curve_endpoints():
    curve = roc_auc(np.array([0.9, 0.4, 0.6, 0.3]), np.array([1, 0, 1, 0]))
    assert curve.fpr[0] == 0.0 and curve.tpr[0] == 0.0
    assert curve.fpr[-1] == 1.0 and curve.tpr[-1] == 1.0
    assert curve.thresholds[0] == np.inf
    assert np.all(np.diff(curve.fpr) >= 0)
    assert np.all(np.diff(curve.tpr) >= 0)


@pytest.mark.parametrize("seed", range(5))
def test_roc_auc_matches_rankdata_on_ties(seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 6, 200) / 4.0  # 6 levels: every score is tied
    labels = rng.integers(0, 2, 200)
    ranks = rankdata(scores)
    n1, n0 = int(labels.sum()), int((labels == 0).sum())
    want = float((ranks[labels == 1].sum() - n1 * (n1 + 1) / 2) / (n1 * n0))
    assert roc_auc(scores, labels).auc == want


@pytest.mark.parametrize("bad, count", [([np.nan], 1), ([np.inf, -np.inf], 2), ([np.nan, np.inf, 0.5], 2)])
def test_roc_rejects_non_finite_scores(bad, count):
    scores = np.array([0.9, 0.1] + bad)
    labels = np.array([1, 0] + [i % 2 for i in range(len(bad))])
    with pytest.raises(ValueError, match=f"finite scores, got {count} NaN or infinite of {len(scores)}"):
        roc_auc(scores, labels)


@pytest.mark.parametrize("stray", [2, -1, 0.5])
def test_roc_rejects_labels_other_than_0_and_1(stray):
    with pytest.raises(ValueError, match=rf"stray labels \[{stray}\]"):
        roc_auc([0.9, 0.5, 0.1, 0.3], [1, stray, 0, 1])


def test_roc_needs_both_classes():
    with pytest.raises(ValueError, match="both classes"):
        roc_auc(np.array([0.1, 0.2]), np.array([1, 1]))


def test_sensitivity_at_specificity_hand_cases():
    sep = roc_auc(np.array([0.9, 0.8, 0.3, 0.2]), np.array([1, 1, 0, 0]))
    assert sensitivity_at_specificity(sep, 0.80) == 1.0
    mixed = roc_auc(np.array([0.9, 0.8, 0.7, 0.6]), np.array([1, 0, 1, 0]))
    assert sensitivity_at_specificity(mixed, 0.80) == pytest.approx(0.7)


def reference_sensitivity_at_specificity(curve, specificity):
    """The highest TPR at each FPR, gathered in a dict, then interpolated."""
    best_tpr = {}
    for f, t in zip(curve.fpr, curve.tpr):
        best_tpr[float(f)] = max(best_tpr.get(float(f), 0.0), float(t))
    xs = np.array(sorted(best_tpr))
    ys = np.array([best_tpr[x] for x in xs])
    return float(np.interp(1.0 - specificity, xs, ys))


@pytest.mark.parametrize("seed", range(5))
def test_sensitivity_at_specificity_matches_reference_on_ties(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        n = int(rng.integers(2, 120))
        levels = int(rng.integers(1, 9))
        scores = rng.integers(0, levels, n) / 4.0  # few levels: vertical runs and ties
        labels = rng.integers(0, 2, n)
        labels[:2] = (0, 1)
        curve = roc_auc(scores, labels)
        for spec in (0.80, float(rng.uniform()), 0.0, 1.0):
            assert sensitivity_at_specificity(curve, spec) == reference_sensitivity_at_specificity(curve, spec)


def test_sensitivity_chance_line():
    rng = np.random.default_rng(12)
    scores = rng.uniform(size=2000)
    labels = (rng.uniform(size=2000) < 0.5).astype(int)
    curve = roc_auc(scores, labels)
    assert sensitivity_at_specificity(curve, 0.80) == pytest.approx(0.20, abs=0.05)

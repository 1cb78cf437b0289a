import dataclasses
import hashlib
import json
import os
import signal
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats as scistats

from conftest import record_calls
from pbcurl import data, network


def small_gaussian_model(rng, n_classes=3, dim=2, separation=8.0, std=0.01):
    return data.random_gaussian_model(n_classes, dim, separation, std, rng)


# ---------------------------------------------------------------------------
# normalisation


def test_norm_stats_standardize(rng):
    x = rng.normal(loc=3.0, scale=2.5, size=(500, 4))
    st = data.NormStats.from_data(x)
    z = st.apply(x)
    assert np.max(np.abs(z.mean(axis=0))) < 1e-9
    assert np.max(np.abs(z.std(axis=0) - 1.0)) < 1e-9


# the rows data's loops take at a time: NormStats sums, sample_points
# shifts and save_labeled_csv formats this many
BLOCK = network.CHUNK_ROWS


@pytest.mark.parametrize("rows", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK,
                                  2 * BLOCK + 1, 2 * BLOCK + 2, 220_000])
def test_norm_stats_keep_the_bits_of_numpy(rng, rows):
    # the row blocks keep np.mean's and np.std's sequential order over axis 0;
    # 220k x 20 is the acceptance-scale iid train matrix
    x = rng.normal(loc=3.0, scale=2.5, size=(rows, 20))
    x[:, 3] = -0.0
    st = data.NormStats.from_data(x)
    assert st.mean.tobytes() == np.mean(x, axis=0).tobytes()
    assert st.std.tobytes() == np.maximum(np.std(x, axis=0), data.STD_FLOOR).tobytes()


def test_norm_stats_constant_column(rng):
    x = rng.normal(size=(100, 3))
    x[:, 1] = 7.0
    st = data.NormStats.from_data(x)
    assert st.std[1] == data.STD_FLOOR
    z = st.apply(x)
    assert np.all(z[:, 1] == 0.0)


def test_norm_stats_dict_round_trip(rng):
    st = data.NormStats.from_data(rng.normal(size=(50, 3)))
    st2 = data.NormStats.from_dict(json.loads(json.dumps(st.to_dict())))
    assert np.array_equal(st.mean, st2.mean)
    assert np.array_equal(st.std, st2.std)


# ---------------------------------------------------------------------------
# labeled CSV


def test_labeled_csv_round_trip_exact(tmp_path, rng):
    ds = data.LabeledDataset(
        x=rng.normal(size=(40, 3)), y=rng.integers(0, 5, size=40).astype(np.int64)
    )
    path = tmp_path / "pts.csv"
    data.save_labeled_csv(ds, path)
    identity = data.NormStats(mean=np.zeros(3), std=np.ones(3))
    back, _ = data.load_feature_csv(path, stats=identity)
    assert np.array_equal(back.x, ds.x)   # repr round trips float64 exactly
    assert np.array_equal(back.y, ds.y)


@pytest.mark.parametrize("block", [None, 2], ids=["one-block", "blocks-of-2"])
def test_labeled_csv_bytes_match_the_per_cell_repr(tmp_path, monkeypatch, block):
    # signed zero, the smallest subnormal, exponent forms, an integral float
    # and the int64 extremes as labels; 5 rows, so blocks of 2 leave one over
    x = np.array([[-0.0, 5e-324], [1e16, 1e-05], [3.0, -1.5], [0.1, 2.0 ** 70],
                  [-5e-324, 123456.789]])
    y = np.array([-2**63, 2**63 - 1, 0, -7, 3], dtype=np.int64)
    path = tmp_path / "pts.csv"
    if block is not None:
        monkeypatch.setattr(network, "CHUNK_ROWS", block)
    data.save_labeled_csv(data.LabeledDataset(x=x, y=y), path)
    want = "".join(",".join(repr(float(v)) for v in row) + f",{int(label)}\n"
                   for row, label in zip(x, y))
    assert path.read_bytes() == want.encode()
    assert "-0.0,5e-324,-9223372036854775808\n1e+16,1e-05,9223372036854775807\n" in want
    # the twin holds the bits the parse gives, signed zero and subnormals too
    twin, (px, py) = data.read_labeled_csv(path), data._read_csv(path, labeled=True)
    assert twin.x.tobytes() == px.tobytes() == x.tobytes()
    assert twin.y.tobytes() == py.tobytes() == y.tobytes()


def test_load_feature_csv_self_normalises(tmp_path, rng):
    ds = data.LabeledDataset(
        x=rng.normal(loc=5.0, scale=3.0, size=(200, 2)),
        y=rng.integers(0, 3, size=200).astype(np.int64),
    )
    path = tmp_path / "train.csv"
    data.save_labeled_csv(ds, path)
    back, st = data.load_feature_csv(path)
    assert np.max(np.abs(back.x.mean(axis=0))) < 1e-9
    assert np.max(np.abs(back.x.std(axis=0) - 1.0)) < 1e-9
    # test split normalised with training statistics, not its own
    back2, st2 = data.load_feature_csv(path, stats=st)
    assert st2 is st
    assert np.array_equal(back.x, back2.x)


@pytest.mark.parametrize("n", [1, 2, 300])
@pytest.mark.parametrize("given", [False, True], ids=["own-stats", "given-stats"])
@pytest.mark.parametrize("twin", [True, False], ids=["twin", "parse"])
def test_load_feature_csv_keeps_the_bits_of_apply(tmp_path, rng, monkeypatch, n, given, twin):
    # normalised in place, on the twin's rows or the parse's
    ds = data.LabeledDataset(x=rng.normal(loc=4.0, scale=3.0, size=(n, 3)),
                             y=rng.integers(0, 4, size=n))
    path = tmp_path / "pts.csv"
    data.save_labeled_csv(ds, path)
    if not twin:
        (tmp_path / "pts.bin").unlink()
    parses = counting_parse(monkeypatch)
    stats = data.NormStats.from_data(rng.normal(size=(20, 3))) if given else None
    back, used = data.load_feature_csv(path, stats=stats)
    assert len(parses) == (0 if twin else 1)
    if given:
        assert used is stats
    else:
        assert used.mean.tobytes() == data.NormStats.from_data(ds.x).mean.tobytes()
    want = used.apply(data.read_labeled_csv(path).x)
    assert back.x.tobytes() == want.tobytes() and back.y.tobytes() == ds.y.tobytes()


@pytest.mark.parametrize(
    "lines,fragment",
    [
        (["1.0,2.0,0", "1.0,0"], ":2: expected 3 columns"),
        (["1.0,2.0,0", "1.0,oops,1"], ":2: non-numeric feature"),
        (["1.0,2.0,0", "1.0,2.0,1.5"], ":2: label column must be integer"),
        (["5"], ":1: need at least one feature column"),
        ([], "empty file"),
        # empty lines are skipped but still counted
        (["1.0,2.0,0", "", "", "1.0,oops,1"], ":4: non-numeric feature"),
        # no comment character: a '#' line is a row like any other
        (["1.0,2.0,0", "#1.0,2.0,1"], ":2: non-numeric feature"),
        (["1.0,2.0,0", "1.0,2.0,1.0"], ":2: label column must be integer"),
        (["1.0,2.0,0", "1.0,nan,1"], ":2: non-finite feature cell"),
        (["1.0,2.0,0", "-inf,2.0,1"], ":2: non-finite feature cell"),
        (["1.0,2.0,0", "1e400,2.0,1"], ":2: non-finite feature cell"),
        (["1.0,2.0,0", "1.0,2.0,99999999999999999999"], ":2: label outside the int64 range"),
        (["1.0,2.0,0", "1.0,2.0,-9223372036854775809"], ":2: label outside the int64 range"),
        # a line of spaces is not empty: one cell
        (["1.0,2.0,0", "   ", "1.0,2.0,1"], ":2: expected 3 columns, got 1"),
    ],
)
def test_load_feature_csv_errors(tmp_path, lines, fragment):
    path = tmp_path / "bad.csv"
    path.write_text("".join(l + "\n" for l in lines))
    with pytest.raises(data.DataFormatError) as exc:
        data.load_feature_csv(path)
    assert fragment in str(exc.value)
    assert str(path) in str(exc.value)


def test_labeled_csv_int64_label_extremes(tmp_path):
    path = tmp_path / "ext.csv"
    path.write_text("1.5,-9223372036854775808\n 2.5 , 9223372036854775807 \n")
    ds = data.read_labeled_csv(path)
    assert ds.y.tolist() == [-(2**63), 2**63 - 1]
    assert ds.x.tolist() == [[1.5], [2.5]]


def test_labeled_csv_rejected_only_by_numpy_names_the_file(tmp_path):
    # python's float() takes '1_0', numpy does not: the line check finds
    # nothing, so numpy's own message is reported under the path
    path = tmp_path / "under.csv"
    path.write_text("1.0,2.0,0\n1_0,2.0,1\n")
    with pytest.raises(data.DataFormatError, match="^" + str(path) + ": "):
        data.read_labeled_csv(path)


def test_labeled_csv_crlf_parses_like_lf(tmp_path, rng):
    ds = data.LabeledDataset(
        x=rng.normal(size=(30, 4)), y=rng.integers(-3, 5, size=30).astype(np.int64)
    )
    lf = tmp_path / "lf.csv"
    data.save_labeled_csv(ds, lf)
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n") + b"\r\n")
    for path in (lf, crlf):
        back = data.read_labeled_csv(path)
        assert back.x.flags.c_contiguous and back.x.dtype == np.float64
        assert back.y.dtype == np.int64
        assert np.array_equal(back.x.view(np.int64), ds.x.view(np.int64))
        assert np.array_equal(back.y, ds.y)


# ---------------------------------------------------------------------------
# binary twin of a labeled CSV


def counting_parse(monkeypatch):
    """Count the CSV parses read_labeled_csv falls back to."""
    calls, parse = [], data._read_csv
    monkeypatch.setattr(data, "_read_csv", lambda *a, **kw: calls.append(a) or parse(*a, **kw))
    return calls


def saved_labeled(tmp_path, rng, n=30, d=3, name="pts.csv"):
    ds = data.LabeledDataset(x=rng.normal(size=(n, d)), y=rng.integers(-3, 9, size=n))
    path = tmp_path / name
    data.save_labeled_csv(ds, path)
    return ds, path


def test_labeled_twin_layout(tmp_path, rng):
    ds, path = saved_labeled(tmp_path, rng, n=7, d=2)
    raw = (tmp_path / "pts.bin").read_bytes()
    assert data.labeled_twin_path(str(path)) == str(tmp_path / "pts.bin")
    assert raw[:8] == b"PBCURLL1" and raw[:8] != data.MAGIC
    assert struct.unpack("<II", raw[8:16]) == (7, 2)
    assert raw[16:48] == hashlib.sha256(path.read_bytes()).digest()
    assert raw[48:] == ds.x.astype("<f8").tobytes() + ds.y.astype("<i8").tobytes()


def test_labeled_twin_is_read_instead_of_the_csv(tmp_path, rng, monkeypatch):
    # blocks of 100 bytes: the CSV is hashed in many reads
    monkeypatch.setattr(data, "HASH_READ_BYTES", 100)
    ds, path = saved_labeled(tmp_path, rng, n=50)
    parses = counting_parse(monkeypatch)
    back = data.read_labeled_csv(path)
    assert parses == []
    assert back.x.dtype == np.float64 and back.x.flags.c_contiguous and back.y.dtype == np.int64
    assert back.x.tobytes() == ds.x.tobytes() and back.y.tobytes() == ds.y.tobytes()


def test_labeled_twin_is_ignored_once_the_csv_is_edited(tmp_path, rng, monkeypatch):
    ds, path = saved_labeled(tmp_path, rng)
    parses = counting_parse(monkeypatch)
    lines = path.read_text().splitlines()
    lines[2] = "123.5," + lines[2].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    back = data.read_labeled_csv(path)
    assert len(parses) == 1
    assert back.x[2, 0] == 123.5 and np.array_equal(back.x[3:], ds.x[3:])
    lines[6] = "nan," + lines[6].split(",", 1)[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(data.DataFormatError) as exc:
        data.read_labeled_csv(path)
    assert str(exc.value) == f"{path}:7: non-finite feature cell"


@pytest.mark.parametrize("damage", ["truncated", "header-only", "empty", "wrong-magic",
                                    "contrastive-magic", "zero-rows", "directory"])
def test_damaged_labeled_twin_is_ignored(tmp_path, rng, monkeypatch, damage):
    ds, path = saved_labeled(tmp_path, rng)
    twin = tmp_path / "pts.bin"
    raw = twin.read_bytes()
    if damage == "directory":
        twin.unlink()
        twin.mkdir()
    else:
        twin.write_bytes({
            "truncated": raw[:-8],
            "header-only": raw[:48],
            "empty": b"",
            "wrong-magic": b"PBCURLX1" + raw[8:],
            "contrastive-magic": data.MAGIC + raw[8:],
            "zero-rows": raw[:8] + struct.pack("<II", 0, 3) + raw[16:48],
        }[damage])
    parses = counting_parse(monkeypatch)
    back = data.read_labeled_csv(path)
    assert len(parses) == 1
    assert back.x.tobytes() == ds.x.tobytes() and back.y.tobytes() == ds.y.tobytes()


@pytest.mark.parametrize("stale", [False, True], ids=["pinned", "stale"])
def test_with_pinned_twins_drops_what_a_stale_pin_read(tmp_path, rng, stale):
    # use's result, error and warnings stand while every pin it read holds;
    # otherwise use(None) runs instead, read_labeled_csv's checked path
    _, path = saved_labeled(tmp_path, rng)
    if stale:       # an empty line: the same rows, other bytes
        path.write_bytes(path.read_bytes() + b"\n")
    seen = []

    def use(pins):
        seen.append(pins)
        data.read_labeled_csv(str(path), pins)
        warnings.warn(f"call {len(seen)}")
        if pins is not None:
            raise ValueError("speculative")
        return "checked"

    with pytest.warns(UserWarning) as shown:
        if stale:
            assert data.with_pinned_twins([str(path)], use) == "checked"
        else:
            with pytest.raises(ValueError, match="speculative"):
                data.with_pinned_twins([str(path)], use)
    assert [str(w.message) for w in shown] == (["call 2"] if stale else ["call 1"])
    assert seen[0] == {str(path): (tmp_path / "pts.bin").read_bytes()[16:48]}
    assert seen[1:] == ([None] if stale else [])


@pytest.mark.parametrize("x,fragment", [
    (np.array([[1.0, 2.0], [np.nan, 0.5]]), ":2: non-finite feature cell"),
    (np.array([[1.0, -np.inf]]), ":1: non-finite feature cell"),
    (np.empty((0, 2)), ": empty file"),
])
def test_labeled_twin_never_accepts_what_the_parse_rejects(tmp_path, x, fragment):
    path = tmp_path / "bad.csv"
    data.save_labeled_csv(data.LabeledDataset(x=x, y=np.zeros(len(x), dtype=np.int64)), path)
    assert (tmp_path / "bad.bin").exists()
    with pytest.raises(data.DataFormatError) as exc:
        data.read_labeled_csv(path)
    assert str(exc.value) == f"{path}{fragment}"


# the widest float repr (24 characters), signed zeros, subnormals, exponent
# forms and plain decimals; labels include the int64 extremes (20 characters)
WIDE_CELLS = np.array([-2.2250738585072014e-308, -0.0, 0.0, 5e-324, -5e-324,
                       -2.225073858507201e-308, 1e16, -1.7976931348623157e+308, 0.1, -1.5])
WIDE_LABELS = np.array([-2**63, 2**63 - 1, 0, -7, 3], dtype=np.int64)


def pin_csv_workers(monkeypatch, n):
    monkeypatch.setattr(network, "worker_count", lambda n_jobs: max(1, min(n_jobs, n)))


def wide_rows(rng, n_rows, dim=3):
    """Rows of WIDE_CELLS and WIDE_LABELS; the first is the widest a row can be."""
    x = rng.choice(WIDE_CELLS, size=(n_rows, dim))
    y = rng.choice(WIDE_LABELS, size=n_rows)
    x[0], y[0] = WIDE_CELLS[0], WIDE_LABELS[0]
    return data.LabeledDataset(x=x, y=y)


def csv_reference(ds):
    return "".join(",".join(repr(float(v)) for v in row) + f",{int(label)}\n"
                   for row, label in zip(ds.x, ds.y)).encode()


@pytest.mark.parametrize("n_rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_labeled_csv_bytes_do_not_depend_on_the_worker_count(tmp_path, rng, monkeypatch,
                                                             n_rows, workers):
    ds = wide_rows(rng, n_rows)
    pin_csv_workers(monkeypatch, workers)
    path = tmp_path / "pts.csv"
    data.save_labeled_csv(ds, path)
    want = csv_reference(ds)
    assert path.read_bytes() == want
    # the widest row fills its bound exactly: dim * 25 + 21 bytes
    assert len(want.split(b"\n")[0]) + 1 == 3 * 25 + 21
    twin, (px, py) = data.read_labeled_csv(path), data._read_csv(path, labeled=True)
    assert twin.x.tobytes() == px.tobytes() == ds.x.tobytes()
    assert twin.y.tobytes() == py.tobytes() == ds.y.tobytes()


@pytest.mark.parametrize("workers", [2, 3])
def test_labeled_csv_blocks_formatted_by_the_children_give_the_one_worker_bytes(
        tmp_path, rng, monkeypatch, children_run_every_job, workers):
    # 5 blocks, every one formatted by a forked worker: worker 0 starts once
    # they are reaped (children_run_every_job) and finds no block left
    ds = wide_rows(rng, 4 * BLOCK + 1)
    pin_csv_workers(monkeypatch, 1)
    data.save_labeled_csv(ds, tmp_path / "one.csv")
    formatted = record_calls(monkeypatch, tmp_path / "formatted", data, "_csv_block",
                             lambda args: len(args[0]))
    pin_csv_workers(monkeypatch, workers)
    data.save_labeled_csv(ds, tmp_path / "children.csv")
    assert sorted(size for _, size in formatted()) == [1] + [BLOCK] * 4
    assert os.getpid() not in {pid for pid, _ in formatted()}
    for suffix in (".csv", ".bin"):
        assert ((tmp_path / f"children{suffix}").read_bytes()
                == (tmp_path / f"one{suffix}").read_bytes())


def fail_in_csv_worker_1(monkeypatch, fail):
    """Patch data._csv_block to call fail() in any process but this one."""
    caller, csv_block = os.getpid(), data._csv_block

    def failing(rows, labels):
        if os.getpid() != caller:                   # worker 1
            fail()
        return csv_block(rows, labels)

    monkeypatch.setattr(data, "_csv_block", failing)


def raise_value_error():
    raise ValueError("bad block in worker 1")


@pytest.mark.parametrize("fail, error, message", [
    (raise_value_error, ValueError, "^bad block in worker 1$"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), RuntimeError,
     "^worker 1 was killed by SIGKILL$"),
], ids=["raises", "killed"])
def test_a_failing_csv_worker_leaves_no_file(tmp_path, rng, monkeypatch, one_job_each, fail,
                                             error, message):
    # one_job_each: worker 1 claims one of the 3 blocks
    pin_csv_workers(monkeypatch, 2)
    fail_in_csv_worker_1(monkeypatch, fail)
    path = tmp_path / "pts.csv"
    with pytest.raises(error, match=message):
        data.save_labeled_csv(wide_rows(rng, 2 * BLOCK + 1), path)
    assert not path.exists() and not (tmp_path / "pts.bin").exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_labeled_csv_text_that_overflows_its_region_raises(tmp_path, rng, monkeypatch,
                                                           workers):
    # regions sized for 5-character floats: 39 bytes a row of 3. Wide rows
    # overflow them; with 2 workers, the first block's rows are zeros, which
    # fit, and the second block overflows on whichever worker claims it
    ds = wide_rows(rng, 2 * BLOCK)
    first = BLOCK * (workers - 1)
    ds.x[:first], ds.y[:first] = 0.0, 0
    monkeypatch.setattr(data, "CSV_FLOAT_BYTES", 5)
    pin_csv_workers(monkeypatch, workers)
    path = tmp_path / "pts.csv"
    with pytest.raises(ValueError, match=f"rows {first} to {first + BLOCK - 1} overflow their "
                                         f"region of {BLOCK * 39} bytes$"):
        data.save_labeled_csv(ds, path)
    assert not path.exists() and not (tmp_path / "pts.bin").exists()


def test_a_failed_fork_gives_the_one_worker_csv_bytes(tmp_path, rng, monkeypatch):
    ds = wide_rows(rng, 2 * BLOCK + 1)
    pin_csv_workers(monkeypatch, 1)
    data.save_labeled_csv(ds, tmp_path / "one.csv")

    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    pin_csv_workers(monkeypatch, 3)
    data.save_labeled_csv(ds, tmp_path / "three.csv")
    for suffix in (".csv", ".bin"):
        assert ((tmp_path / f"three{suffix}").read_bytes()
                == (tmp_path / f"one{suffix}").read_bytes())


def test_labeled_csv_named_like_its_twin_is_refused(tmp_path):
    path = tmp_path / "pts.bin"
    with pytest.raises(ValueError, match="twin would overwrite the CSV"):
        data.save_labeled_csv(data.LabeledDataset(x=np.ones((2, 2)), y=np.zeros(2)), path)
    assert not path.exists()


def test_labeled_csv_beside_a_contrastive_bin_parses(tmp_path, rng, monkeypatch):
    model = small_gaussian_model(rng)
    tuples = data.sample_contrastive_iid(model, 5, 2, 1, rng)
    data.save_contrastive(tuples, str(tmp_path / "train.json"))
    csv = tmp_path / "train.csv"
    csv.write_text("1.5,2.5,0\n-0.5,3.0,1\n")
    parses = counting_parse(monkeypatch)
    back = data.read_labeled_csv(csv)
    assert len(parses) == 1
    assert back.x.tolist() == [[1.5, 2.5], [-0.5, 3.0]] and back.y.tolist() == [0, 1]
    assert data.dataset_hash(data.load_contrastive(str(tmp_path / "train.json"))) == \
        data.dataset_hash(tuples)


# ---------------------------------------------------------------------------
# iid sampling


def test_sample_contrastive_iid_layout(rng):
    model = small_gaussian_model(rng)
    ds = data.sample_contrastive_iid(model, m=50, k=4, block_size=2, rng=rng)
    assert len(ds) == 50
    assert ds.k == 4 and ds.block_size == 2 and ds.dependency_t == 0
    assert ds.features.shape == (50 * (1 + 2 + 4 * 2), 2)
    a, p, n = ds.gather()
    assert a.shape == (50, 2) and p.shape == (50, 2, 2) and n.shape == (50, 4, 2, 2)
    assert ds.provenance["kind"] == "synthetic-iid"
    assert ds.provenance["tau"] == pytest.approx(np.sum(model.rho**2))


def test_sample_contrastive_iid_positive_class_matches_anchor(rng):
    # tiny within-class noise: class is recoverable from the nearest mean
    model = small_gaussian_model(rng, n_classes=4, separation=20.0, std=1e-3)
    ds = data.sample_contrastive_iid(model, m=200, k=2, block_size=3, rng=rng)

    def class_of(points):
        d2 = ((points[..., None, :] - model.means) ** 2).sum(axis=-1)
        return np.argmin(d2, axis=-1)

    a, p, _ = ds.gather()
    assert np.all(class_of(p) == class_of(a)[:, None])


def test_sample_contrastive_iid_joint_class_frequencies(rng):
    # goodness of fit over the 27 joint (positive, neg1, neg2) class cells
    rho = np.array([0.5, 0.3, 0.2])
    means = np.array([[0.0], [30.0], [60.0]])
    model = data.LatentClassModel(rho=rho, means=means, std=1e-3)
    ds = data.sample_contrastive_iid(model, m=100_000, k=2, block_size=1, rng=rng)
    a, _, n = ds.gather()
    ca = np.argmin(np.abs(a[:, 0:1] - means.T), axis=1)
    cn = np.argmin(np.abs(n[:, :, 0, 0][..., None] - means.T[None]), axis=2)
    cell = ca * 9 + cn[:, 0] * 3 + cn[:, 1]
    observed = np.bincount(cell, minlength=27)
    expected = len(ds) * (rho[:, None, None] * rho[None, :, None] * rho[None, None, :])
    _, p_value = scistats.chisquare(observed, expected.ravel())
    assert p_value >= 0.01


def test_sample_contrastive_iid_deterministic():
    model = small_gaussian_model(np.random.default_rng(7))
    d1 = data.sample_contrastive_iid(model, 30, 2, 2, np.random.default_rng(99))
    d2 = data.sample_contrastive_iid(model, 30, 2, 2, np.random.default_rng(99))
    assert data.dataset_hash(d1) == data.dataset_hash(d2)
    assert np.array_equal(d1.negatives, d2.negatives)
    d3 = data.sample_contrastive_iid(model, 30, 2, 2, np.random.default_rng(100))
    assert data.dataset_hash(d1) != data.dataset_hash(d3)


def test_sample_contrastive_iid_matches_per_part_draws(rng):
    # the parts drawn one by one as separate arrays, shifted by their class means
    model = small_gaussian_model(rng, n_classes=4, dim=3, std=0.7)
    m, k, b = 3000, 3, 2
    ds = data.sample_contrastive_iid(model, m, k, b, np.random.default_rng(8))
    draw = np.random.default_rng(8)
    c_pos = model.sample_classes(m, draw)
    c_neg = model.sample_classes((m, k), draw)
    parts = [model.means[c] + model.std * draw.standard_normal(c.shape + (3,))
             for c in (c_pos, np.repeat(c_pos[:, None], b, axis=1),
                       np.repeat(c_neg[:, :, None], b, axis=2))]
    want = np.concatenate([p.reshape(-1, 3) for p in parts])
    assert np.array_equal(ds.features.view(np.int64), want.view(np.int64))


def test_sample_contrastive_iid_allocates_little_beyond_its_matrix():
    # 20k tuples of 11 rows: a 35 MB matrix. Drawing the parts separately and
    # concatenating them peaked at 88 MB
    model = data.random_gaussian_model(10, 20, 3.0, 1.0, np.random.default_rng(0))
    tracemalloc.start()
    try:
        ds = data.sample_contrastive_iid(model, 20_000, 4, 2, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.features.nbytes == 35_200_000
    assert peak < 45e6


def test_sample_labeled_frequencies(rng):
    model = data.LatentClassModel(rho=np.array([0.0, 1.0, 0.0]), means=np.zeros((3, 2)))
    ds = data.sample_labeled(model, 50, rng)
    assert np.all(ds.y == 1)

    model = small_gaussian_model(rng, n_classes=3)
    n = 3000
    ds = data.sample_labeled(model, n, rng)
    for c in range(3):
        count = int(np.sum(ds.y == c))
        assert abs(count - n / 3) <= 4.0 * np.sqrt(n * (1 / 3) * (2 / 3))


def test_build_iid_from_labeled_classes_consistent(rng):
    # features carry their class id, so index bookkeeping is fully checkable
    y = np.repeat(np.arange(4), 25)
    x = y[:, None].astype(np.float64) + rng.normal(scale=1e-6, size=(100, 1))
    labeled = data.LabeledDataset(x=x, y=y)
    ds = data.build_iid_from_labeled(labeled, m=300, k=3, block_size=2, rng=rng)
    assert ds.features is labeled.x
    assert np.array_equal(y[ds.positives], y[ds.anchors][:, None].repeat(2, axis=1))
    assert ds.provenance["kind"] == "labeled-iid"
    assert ds.provenance["rho"] == pytest.approx([0.25] * 4)
    # negatives draw from the pool of their own class rows
    assert ds.negatives.min() >= 0 and ds.negatives.max() < 100


# ---------------------------------------------------------------------------
# sequences


def test_gen_sequences_shapes_and_labels(rng):
    model = small_gaussian_model(rng, n_classes=3, dim=2)
    seqs, labels = data.gen_sequences(model, n_per_class=4, length=10, ar_coeff=0.7, rng=rng)
    assert len(seqs) == 12 and labels == [0] * 4 + [1] * 4 + [2] * 4
    assert all(s.shape == (10, 2) for s in seqs)


def loop_gen_sequences(model, n_per_class, length, ar_coeff, rng):
    """One draw and one recurrence per sequence: the reference."""
    phi = float(ar_coeff)
    seqs, labels = [], []
    for c in range(model.n_classes):
        for _ in range(n_per_class):
            eps = rng.standard_normal((length, model.dim))
            u = np.empty_like(eps)
            u[0] = eps[0]
            for t in range(1, length):
                u[t] = phi * u[t - 1] + np.sqrt(1.0 - phi * phi) * eps[t]
            seqs.append(model.means[c] + model.std * u)
            labels.append(c)
    return seqs, labels


@pytest.mark.parametrize("phi", [0.7, -0.3, 1.0])
def test_gen_sequences_matches_the_per_sequence_loop(phi):
    model = data.random_gaussian_model(5, 6, 3.0, 0.8, np.random.default_rng(3))
    seqs, labels = data.gen_sequences(model, 4, 45, phi, np.random.default_rng(9))
    ref_seqs, ref_labels = loop_gen_sequences(model, 4, 45, phi, np.random.default_rng(9))
    assert labels == ref_labels
    assert len(seqs) == len(ref_seqs)
    assert all(s.tobytes() == r.tobytes() for s, r in zip(seqs, ref_seqs))


def test_gen_sequences_stationary_marginal(rng):
    # AR(1) with unit innovations keeps the marginal spread at std
    model = data.LatentClassModel(rho=np.array([1.0]), means=np.zeros((1, 1)), std=2.0)
    seqs, _ = data.gen_sequences(model, n_per_class=200, length=50, ar_coeff=0.8, rng=rng)
    pooled = np.concatenate([s[:, 0] for s in seqs])
    assert np.std(pooled) == pytest.approx(2.0, rel=0.05)


def test_noniid_tuple_layout(rng):
    model = small_gaussian_model(rng, n_classes=4)
    seqs, labels = data.gen_sequences(model, n_per_class=3, length=12, ar_coeff=0.7, rng=rng)
    ds = data.build_noniid_from_sequences(seqs, labels, k=3, block_size=2, rng=rng)
    assert len(ds) == 12 * (12 - 2)
    assert ds.dependency_t == 2
    assert ds.provenance["kind"] == "sequences"
    # positives are the anchor's next block_size frames
    expect = ds.anchors[:, None] + np.arange(1, 3)
    assert np.array_equal(ds.positives, expect)


def test_noniid_window_exclusion(rng):
    # no negative index may fall inside [anchor, anchor + block_size]
    model = small_gaussian_model(rng, n_classes=2)
    seqs, labels = data.gen_sequences(model, n_per_class=2, length=8, ar_coeff=0.9, rng=rng)
    for _ in range(50):
        ds = data.build_noniid_from_sequences(seqs, labels, k=2, block_size=2, rng=rng)
        lo = ds.anchors[:, None, None]
        assert not np.any((ds.negatives >= lo) & (ds.negatives <= lo + 2))


def test_noniid_short_sequence_rejected(rng):
    seqs = [np.zeros((2, 1))]
    with pytest.raises(ValueError):
        data.build_noniid_from_sequences(seqs, [0], k=1, block_size=2, rng=rng)


def test_noniid_corpus_scale_tuple_count(rng):
    # 95 classes x 21 sequences x 45 frames with lookahead 2: 43 tuples each
    seqs = [np.zeros((45, 1)) for _ in range(95 * 21)]
    labels = np.repeat(np.arange(95), 21)
    ds = data.build_noniid_from_sequences(seqs, labels, k=1, block_size=2, rng=rng)
    assert len(ds) == 95 * 21 * 43 == 85785
    assert ds.features.shape[0] == 95 * 21 * 45 == 89775


# ---------------------------------------------------------------------------
# binary persistence


def test_contrastive_round_trip(tmp_path, rng):
    model = small_gaussian_model(rng)
    ds = data.sample_contrastive_iid(model, 25, 3, 2, rng)
    path = tmp_path / "train.json"
    data.save_contrastive(ds, str(path))
    back = data.load_contrastive(str(path))
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.anchors, ds.anchors)
    assert np.array_equal(back.positives, ds.positives)
    assert np.array_equal(back.negatives, ds.negatives)
    assert (back.k, back.block_size, back.dependency_t) == (3, 2, 0)
    assert back.provenance == json.loads(json.dumps(ds.provenance))
    assert data.dataset_hash(back) == data.dataset_hash(ds)


def test_load_contrastive_bad_magic(tmp_path, rng):
    ds = data.sample_contrastive_iid(small_gaussian_model(rng), 5, 1, 1, rng)
    path = tmp_path / "ds.json"
    data.save_contrastive(ds, str(path))
    bin_path = tmp_path / "ds.bin"
    blob = bytearray(bin_path.read_bytes())
    blob[0] ^= 0xFF
    bin_path.write_bytes(bytes(blob))
    with pytest.raises(data.DataFormatError) as exc:
        data.load_contrastive(str(path))
    assert "bad magic" in str(exc.value) and str(bin_path) in str(exc.value)


def test_load_contrastive_holds_one_copy_of_the_matrix(tmp_path, rng):
    # acceptance scale: 20k tuples, k=4, blocks of 2 over a 220k x 20 matrix
    # (35 MB). The parsed JSON indices take about 22 MB; a second copy of the
    # matrix would cross the limit
    m, k, b = 20_000, 4, 2
    rows = m * (1 + b * (1 + k))
    order = rng.permutation(rows)
    ds = data.ContrastiveDataset(
        features=rng.standard_normal((rows, 20)),
        anchors=order[:m], positives=order[m:m + m * b].reshape(m, b),
        negatives=order[m + m * b:].reshape(m, k, b), k=k, block_size=b,
    )
    path = str(tmp_path / "big.json")
    data.save_contrastive(ds, path)
    tracemalloc.start()
    try:
        back = data.load_contrastive(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.features, ds.features)
    assert back.features.dtype == np.float64 and back.features.flags.writeable
    assert peak < 2 * ds.features.nbytes


def test_load_contrastive_wrong_format(tmp_path):
    path = tmp_path / "ds.json"
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(data.DataFormatError) as exc:
        data.load_contrastive(str(path))
    assert "not a contrastive dataset manifest" in str(exc.value)


def index_region_offset(ds):
    # the index arrays follow the 16 byte header and the float64 matrix
    return 16 + 8 * ds.features.size


def test_load_contrastive_index_out_of_range(tmp_path, rng):
    ds = data.sample_contrastive_iid(small_gaussian_model(rng), 5, 1, 1, rng)
    path = tmp_path / "ds.json"
    data.save_contrastive(ds, str(path))
    bin_path = tmp_path / "ds.bin"
    blob = bytearray(bin_path.read_bytes())
    at = index_region_offset(ds)                  # the first anchor
    assert struct.unpack_from("<q", blob, at)[0] == ds.anchors[0]
    struct.pack_into("<q", blob, at, ds.features.shape[0])
    bin_path.write_bytes(bytes(blob))
    with pytest.raises(data.DataFormatError) as exc:
        data.load_contrastive(str(path))
    assert "index out of range" in str(exc.value) and str(path) in str(exc.value)


def test_load_contrastive_rejects_a_negative_dependency_range(tmp_path, rng):
    ds = data.sample_contrastive_iid(small_gaussian_model(rng), 5, 1, 1, rng)
    path = tmp_path / "ds.json"
    data.save_contrastive(ds, str(path))
    doc = json.loads(path.read_text())
    doc["dependency_t"] = -1
    path.write_text(json.dumps(doc))
    with pytest.raises(data.DataFormatError) as exc:
        data.load_contrastive(str(path))
    assert "dependency_t must be >= 0, got -1" in str(exc.value) and str(path) in str(exc.value)
    with pytest.raises(data.DataFormatError, match="dependency_t must be >= 0, got -2"):
        dataclasses.replace(ds, dependency_t=-2)


def test_load_contrastive_truncated(tmp_path, rng):
    # 8 bytes short: the last negative index of the index region is cut
    ds = data.sample_contrastive_iid(small_gaussian_model(rng), 5, 2, 2, rng)
    path = tmp_path / "ds.json"
    data.save_contrastive(ds, str(path))
    bin_path = tmp_path / "ds.bin"
    blob = bin_path.read_bytes()
    n_index = ds.anchors.size + ds.positives.size + ds.negatives.size
    assert len(blob) == index_region_offset(ds) + 8 * n_index
    bin_path.write_bytes(blob[:-8])
    with pytest.raises(data.DataFormatError) as exc:
        data.load_contrastive(str(path))
    assert f"expected {len(blob)} bytes, found {len(blob) - 8}" in str(exc.value)


@pytest.mark.parametrize("bad", [-1, 30])
@pytest.mark.parametrize("part", ["anchors", "positives", "negatives"])
def test_dataset_rejects_out_of_range_index_at_construction(rng, part, bad):
    # row gathers clip instead of checking, so a -1 would read row 0 and a
    # rows-sized index the last row: the dataset must refuse to exist
    m, k, b, rows = 4, 2, 2, 30
    parts = {
        "anchors": rng.integers(0, rows, m),
        "positives": rng.integers(0, rows, (m, b)),
        "negatives": rng.integers(0, rows, (m, k, b)),
    }
    parts[part].flat[-1] = bad
    with pytest.raises(data.DataFormatError) as exc:
        data.ContrastiveDataset(
            features=rng.standard_normal((rows, 3)), **parts, k=k, block_size=b,
        )
    assert "index out of range" in str(exc.value)


@pytest.mark.parametrize("m, k, b, fragment", [
    (0, 2, 2, "the manifest holds no tuples"),
    (3, 0, 2, "k and block_size must be >= 1"),
    (3, 2, 0, "k and block_size must be >= 1"),
])
def test_dataset_rejects_an_empty_tuple_shape(rng, m, k, b, fragment):
    # k = 0 certified NaN and block_size = 0 crashed the risk estimate
    with pytest.raises(data.DataFormatError) as exc:
        data.ContrastiveDataset(
            features=rng.standard_normal((30, 3)), anchors=np.zeros(m, np.int64),
            positives=np.zeros((m, b), np.int64), negatives=np.zeros((m, k, b), np.int64),
            k=k, block_size=b,
        )
    assert fragment in str(exc.value)


def test_load_contrastive_shape_mismatch(tmp_path, rng):
    ds = data.sample_contrastive_iid(small_gaussian_model(rng), 5, 2, 2, rng)
    path = tmp_path / "ds.json"
    data.save_contrastive(ds, str(path))
    doc = json.loads(path.read_text())
    doc["block_size"] = 3
    path.write_text(json.dumps(doc))
    with pytest.raises(data.DataFormatError) as exc:
        data.load_contrastive(str(path))
    assert "shape mismatch" in str(exc.value)


def test_dataset_hash_sensitivity(rng):
    model = small_gaussian_model(rng)
    ds = data.sample_contrastive_iid(model, 10, 2, 1, rng)
    h0 = data.dataset_hash(ds)
    assert h0 == data.dataset_hash(ds)
    ds.features[3, 0] += 1e-12
    assert data.dataset_hash(ds) != h0


@pytest.mark.parametrize("layout", ["float32", "fortran"])
def test_dataset_hash_is_the_serialized_matrix_digest(rng, layout):
    # reference: the serialized matrix, then k, block_size and dependency_t,
    # then the index arrays, all as little-endian 8 byte integers
    x = rng.standard_normal((31, 7))
    x = x.astype(np.float32) if layout == "float32" else np.asfortranarray(x)
    anchors = np.arange(3, dtype=np.int32)
    positives = np.asfortranarray(rng.integers(0, 31, size=(3, 2)))
    negatives = rng.integers(0, 31, size=(3, 4, 2))
    ds = data.ContrastiveDataset(
        features=x, anchors=anchors, positives=positives, negatives=negatives,
        k=4, block_size=2, dependency_t=5,
    )
    values = x.ravel().tolist()                                   # row-major
    ints = [4, 2, 5] + anchors.tolist() + positives.ravel().tolist() + negatives.ravel().tolist()
    blob = (b"PBCURLF1" + struct.pack("<II", 31, 7) + struct.pack(f"<{len(values)}d", *values)
            + struct.pack(f"<{len(ints)}q", *ints))
    assert data.dataset_hash(ds) == hashlib.sha256(blob).hexdigest()


def test_dataset_hash_pins_the_tuples(rng):
    # two tuple sets drawn over one labeled pool share the feature matrix
    pool = data.sample_labeled(small_gaussian_model(rng), 40, rng)
    d1 = data.build_iid_from_labeled(pool, m=20, k=2, block_size=2, rng=rng)
    d2 = data.build_iid_from_labeled(pool, m=20, k=2, block_size=2, rng=rng)
    assert d1.features is d2.features
    assert data.dataset_hash(d1) != data.dataset_hash(d2)
    h = data.dataset_hash(d1)
    d1.dependency_t = 2
    assert data.dataset_hash(d1) != h


# ---------------------------------------------------------------------------
# concatenation


def test_concat_contrastive(rng):
    model = small_gaussian_model(rng)
    a = data.sample_contrastive_iid(model, 12, 2, 2, rng)
    seqs, labels = data.gen_sequences(model, n_per_class=2, length=6, ar_coeff=0.7, rng=rng)
    b = data.build_noniid_from_sequences(seqs, labels, k=2, block_size=2, rng=rng)
    both = data.concat_contrastive(a, b)
    assert len(both) == len(a) + len(b)
    assert both.dependency_t == max(a.dependency_t, b.dependency_t) == 2
    a2, p2, n2 = both.gather(np.arange(len(a), len(both)))
    a1, p1, n1 = b.gather()
    assert np.array_equal(a2, a1) and np.array_equal(p2, p1) and np.array_equal(n2, n1)


def test_concat_contrastive_keeps_a_shared_tau(rng):
    model = small_gaussian_model(rng)
    a, b = (data.sample_contrastive_iid(model, 6, 2, 2, rng) for _ in range(2))
    tau = a.provenance["tau"]
    assert b.provenance["tau"] == tau
    assert data.concat_contrastive(a, b).provenance["tau"] == tau
    # a chain of concatenations keeps it too
    assert data.concat_contrastive(data.concat_contrastive(a, b), a).provenance["tau"] == tau
    other = dataclasses.replace(b, provenance={**b.provenance, "tau": tau / 2})
    assert "tau" not in data.concat_contrastive(a, other).provenance
    bare = dataclasses.replace(b, provenance={})
    assert "tau" not in data.concat_contrastive(a, bare).provenance
    assert "tau" not in data.concat_contrastive(bare, a).provenance


def test_concat_contrastive_mismatch(rng):
    model = small_gaussian_model(rng)
    a = data.sample_contrastive_iid(model, 5, 2, 2, rng)
    b = data.sample_contrastive_iid(model, 5, 3, 2, rng)
    with pytest.raises(ValueError):
        data.concat_contrastive(a, b)
    c = data.sample_contrastive_iid(model, 5, 2, 1, rng)
    with pytest.raises(ValueError):
        data.concat_contrastive(a, c)


# ---------------------------------------------------------------------------
# sequence corpus ingestion


def write_seq_csv(path, frames):
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in frames))


def test_load_sequence_csv(tmp_path, rng):
    frames = rng.normal(size=(6, 3))
    path = tmp_path / "seq.csv"
    write_seq_csv(path, frames)
    assert np.array_equal(data.load_sequence_csv(path), frames)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1.0,2.0\n1.0\n", ":2: expected 2 columns"),
        ("1.0,x\n", ":1: non-numeric cell"),
        ("", "empty sequence"),
        ("1.0,2.0\n\n3.0,inf\n", ":3: non-finite cell"),
        ("nan\n", ":1: non-finite cell"),
    ],
)
def test_load_sequence_csv_errors(tmp_path, text, fragment):
    path = tmp_path / "seq.csv"
    path.write_text(text)
    with pytest.raises(data.DataFormatError) as exc:
        data.load_sequence_csv(path)
    assert fragment in str(exc.value)


def test_load_sequence_csv_single_row_and_column(tmp_path):
    path = tmp_path / "seq.csv"
    path.write_text("1.0,2.0,3.0\n")
    assert data.load_sequence_csv(path).tolist() == [[1.0, 2.0, 3.0]]
    path.write_text("1.0\n2.0\n")
    assert data.load_sequence_csv(path).tolist() == [[1.0], [2.0]]


def write_corpus(tmp_path, rng, n_files=3):
    manifest = {}
    for label in ("0", "1"):
        paths = []
        for i in range(n_files):
            p = tmp_path / f"c{label}_{i}.csv"
            write_seq_csv(p, rng.normal(size=(7 + i, 2)))
            paths.append(str(p))
        manifest[label] = paths
    return manifest


def test_prep_sequence_corpus_split_and_truncate(tmp_path, rng):
    manifest = write_corpus(tmp_path, rng)
    splits = data.prep_sequence_corpus(manifest, first_steps=6, train_per_class=2)
    (tr_s, tr_l), (va_s, va_l), (te_s, te_l) = (splits[k] for k in ("train", "valid", "test"))
    assert len(tr_s) == 4 and tr_l == [0, 0, 1, 1]
    assert va_s == [] and va_l == []
    assert len(te_s) == 2 and te_l == [0, 1]
    assert all(s.shape == (6, 2) for s in tr_s + te_s)


def test_prep_sequence_corpus_valid_split_is_the_last_training_files(tmp_path, rng):
    # reference: the training split, then the last valid_per_class sequences
    # of each class moved to the validation split in one more walk
    manifest = write_corpus(tmp_path, rng, n_files=4)
    whole = data.prep_sequence_corpus(manifest, first_steps=6, train_per_class=3)
    seen, want = {}, {"train": ([], []), "valid": ([], [])}
    for seq, lab in zip(*whole["train"]):
        seen[lab] = seen.get(lab, 0) + 1
        name = "valid" if seen[lab] > 3 - 1 else "train"
        want[name][0].append(seq)
        want[name][1].append(lab)
    got = data.prep_sequence_corpus(manifest, first_steps=6, train_per_class=3, valid_per_class=1)
    for name in ("train", "valid"):
        assert got[name][1] == want[name][1]
        assert all(np.array_equal(a, b) for a, b in zip(got[name][0], want[name][0]))
    assert got["test"][1] == whole["test"][1] == [0, 1]


@pytest.mark.parametrize("valid_per_class", [-1, 2, 3])
def test_prep_sequence_corpus_rejects_a_valid_count_outside_the_training_files(
        tmp_path, rng, valid_per_class):
    manifest = write_corpus(tmp_path, rng)
    with pytest.raises(ValueError) as exc:
        data.prep_sequence_corpus(manifest, first_steps=6, train_per_class=2,
                                  valid_per_class=valid_per_class)
    assert "valid_per_class" in str(exc.value)


def test_prep_sequence_corpus_too_short(tmp_path, rng):
    p = tmp_path / "s.csv"
    write_seq_csv(p, rng.normal(size=(3, 2)))
    q = tmp_path / "t.csv"
    write_seq_csv(q, rng.normal(size=(8, 2)))
    with pytest.raises(data.DataFormatError) as exc:
        data.prep_sequence_corpus({"0": [str(p), str(q)]}, first_steps=5, train_per_class=1)
    assert str(p) in str(exc.value)


def test_prep_sequence_corpus_split_needs_leftover(tmp_path, rng):
    p = tmp_path / "s.csv"
    write_seq_csv(p, rng.normal(size=(5, 2)))
    with pytest.raises(data.DataFormatError) as exc:
        data.prep_sequence_corpus({"0": [str(p)]}, first_steps=4, train_per_class=1)
    assert "need more than" in str(exc.value)


def test_frames_as_labeled(rng):
    seqs = [rng.normal(size=(4, 2)), rng.normal(size=(6, 2))]
    ds = data.frames_as_labeled(seqs, [3, 1])
    assert ds.x.shape == (10, 2)
    assert np.array_equal(ds.y, np.array([3] * 4 + [1] * 6))
    assert np.array_equal(ds.x[4:], seqs[1])


# ---------------------------------------------------------------------------
# model validation


def test_model_validation():
    with pytest.raises(ValueError):
        data.LatentClassModel(rho=np.array([0.5, 0.6]), means=np.zeros((2, 1)))
    with pytest.raises(ValueError):
        data.LatentClassModel(rho=np.array([-0.5, 1.5]), means=np.zeros((2, 1)))
    with pytest.raises(TypeError):
        data.LatentClassModel(rho=np.array([1.0]))

import math
import tracemalloc

import numpy as np
import pytest

from scapre import informax
from scapre.informax import (
    _BLOCK_BYTES,
    JointCounts,
    _mi_table,
    _row_medians,
    build_decoupler,
    channel_mi,
    channel_thresholds,
)
from scapre.oracle import mi_bruteforce
from scapre.smatio import SmatRows, write_smat


def direct_mi(n00, n01, n10, n11):
    """Plain four-term summation, written out for cross-checking."""
    k = n00 + n01 + n10 + n11
    total = 0.0
    for n_zy, n_z, n_y in [
        (n00, n00 + n01, n00 + n10),
        (n01, n00 + n01, n01 + n11),
        (n10, n10 + n11, n00 + n10),
        (n11, n10 + n11, n01 + n11),
    ]:
        if n_zy:
            total += (n_zy / k) * math.log(n_zy * k / (n_z * n_y))
    return total


class TestChannelMi:
    def test_independence(self):
        assert channel_mi(JointCounts(25, 25, 25, 25)) <= 1e-12

    def test_perfect_dependence(self):
        assert abs(channel_mi(JointCounts(50, 0, 0, 50)) - math.log(2.0)) < 1e-12

    def test_worked_table(self):
        got = channel_mi(JointCounts(40, 10, 10, 40))
        assert abs(got - direct_mi(40, 10, 10, 40)) < 1e-15
        assert abs(got - 0.192745) < 1e-6

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n00, n01, n10, n11 = (int(x) for x in rng.integers(0, 50, 4))
            if n00 + n01 + n10 + n11 == 0:
                continue
            swapped = channel_mi(JointCounts(n00, n10, n01, n11))  # z <-> y
            assert abs(channel_mi(JointCounts(n00, n01, n10, n11)) - swapped) < 1e-12

    def test_nonnegative_and_zero_on_product_tables(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a0, a1, b0, b1 = (int(x) for x in rng.integers(1, 12, 4))
            # joint counts in exact product form => independent by construction
            mi = channel_mi(JointCounts(a0 * b0, a0 * b1, a1 * b0, a1 * b1))
            assert 0.0 <= mi <= 1e-12

    def test_degenerate_marginal(self):
        assert channel_mi(JointCounts(10, 0, 0, 0)) == 0.0

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ValueError, match="positive"):
            channel_mi(JointCounts(0, 0, 0, 0))
        with pytest.raises(ValueError, match="nonnegative"):
            JointCounts(-1, 0, 0, 0)


class TestThresholds:
    def test_odd_count_median(self):
        w = np.array([[1.0]])
        feats = np.array([[1.0], [3.0], [5.0]])
        tau = channel_thresholds(w, feats, [1, 0, 1])
        assert tau[0] == 3.0

    def test_even_count_median(self):
        w = np.array([[1.0]])
        tau = channel_thresholds(w, np.array([[1.0], [3.0]]), [0, 1])
        assert tau[0] == 2.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((32, 10))
        feats = rng.standard_normal((200, 10))
        labels = rng.integers(0, 3, 200)
        labels[0], labels[1] = 0, 1
        tau = channel_thresholds(w, feats, labels)
        acts = feats @ w.T
        for i in range(32):
            col = np.sort(acts[:, i])
            want = (col[99] + col[100]) / 2.0
            assert tau[i] == want

    def test_requires_both_classes(self):
        w = np.eye(2)
        feats = np.zeros((3, 2))
        with pytest.raises(ValueError, match="neutral"):
            channel_thresholds(w, feats, [1, 1, 2])
        with pytest.raises(ValueError, match="neutral"):
            channel_thresholds(w, feats, [0, 0, 0])

    def test_requires_two_samples(self):
        with pytest.raises(ValueError, match="two"):
            channel_thresholds(np.eye(2), np.zeros((1, 2)), [1])


class TestBuildDecoupler:
    def test_single_informative_channel(self):
        # channel 0 fires on targets only; channel 1 sees nothing
        w = np.eye(2)
        feats = np.array(
            [[5.0, 0.0], [5.2, 0.0], [4.8, 0.0], [0.0, 0.0], [0.1, 0.0], [-0.1, 0.0]]
        )
        labels = [1, 1, 1, 0, 0, 0]
        dec = build_decoupler(w, feats, labels)
        assert dec.alpha[0] == 1.0
        assert dec.alpha[1] == 0.0
        assert not dec.degenerate

    def test_all_constant_activations_degenerate(self):
        w = np.eye(2)
        feats = np.ones((6, 2))
        dec = build_decoupler(w, feats, [1, 1, 1, 0, 0, 0])
        assert dec.degenerate
        assert np.array_equal(dec.alpha, np.zeros(2))

    def test_alpha_range_and_normalization(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((12, 6))
        feats = rng.standard_normal((80, 6))
        labels = rng.integers(0, 4, 80)
        labels[:4] = [0, 1, 2, 3]
        dec = build_decoupler(w, feats, labels)
        assert (dec.alpha >= 0.0).all() and (dec.alpha <= 1.0).all()
        if not dec.degenerate:
            assert dec.alpha.max() == 1.0
        assert dec.per_concept_mi.shape == (12, 3)
        assert np.array_equal(dec.mi_raw, dec.per_concept_mi.max(axis=1))

    def test_log_base_invariance(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((8, 5))
        feats = rng.standard_normal((60, 5))
        labels = rng.integers(0, 3, 60)
        labels[:2] = [0, 1]
        nats = build_decoupler(w, feats, labels)
        bits = build_decoupler(w, feats, labels, base=2.0)
        assert np.abs(nats.alpha - bits.alpha).max() < 1e-12

    def test_row_rescaling_invariance(self):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((6, 4))
        feats = rng.standard_normal((50, 4))
        labels = rng.integers(0, 2, 50)
        labels[:2] = [0, 1]
        gamma = rng.uniform(0.1, 10.0, 6)
        base = build_decoupler(w, feats, labels)
        scaled = build_decoupler(gamma[:, None] * w, feats, labels)
        assert np.abs(base.alpha - scaled.alpha).max() < 1e-12

    def test_planted_channel_recovery(self):
        # one channel carries the concept at SNR 10; recover it >= 99/100 times
        rng = np.random.default_rng(6)
        d = 16
        hits = 0
        for _ in range(100):
            w, _ = np.linalg.qr(rng.standard_normal((d, d)))
            w = w.T
            planted = int(rng.integers(d))
            concept = 10.0 * w[planted]
            targets = concept + rng.standard_normal((50, d))
            neutrals = rng.standard_normal((50, d))
            feats = np.vstack([targets, neutrals])
            labels = np.array([1] * 50 + [0] * 50)
            dec = build_decoupler(w, feats, labels)
            hits += int(np.argmax(dec.alpha) == planted)
        assert hits >= 99

    @pytest.mark.parametrize("base", [None, 2.0])
    def test_cells_match_scalar_and_raw_pair_oracles(self, base):
        # integer weights and features put many activations exactly on the
        # median, so the strict-threshold tie rule is exercised
        rng = np.random.default_rng(7)
        w = rng.integers(-2, 3, (24, 5)).astype(float)
        feats = rng.integers(-2, 3, (90, 5)).astype(float)
        labels = np.repeat([0, 2, 3, 7], [30, 8, 19, 33])
        rng.shuffle(labels)
        dec = build_decoupler(w, feats, labels, base=base)
        assert dec.concept_labels == (2, 3, 7)
        acts = feats @ w.T
        z = acts > np.median(acts, axis=0)
        to_base = 1.0 if base is None else math.log(base)
        for j, k in enumerate(dec.concept_labels):
            rows = (labels == 0) | (labels == k)
            for i in range(w.shape[0]):
                pairs = [(int(zz), int(yy == k)) for zz, yy in zip(z[rows, i], labels[rows])]
                counts = JointCounts(
                    *(pairs.count(cell) for cell in ((0, 0), (0, 1), (1, 0), (1, 1)))
                )
                got = dec.per_concept_mi[i, j]
                assert abs(got - channel_mi(counts, base=base)) <= 1e-15
                assert abs(got - mi_bruteforce(pairs) / to_base) <= 1e-15


def reference_decoupler(w, feats, labels, base=None):
    """Pooled-median thresholds from ``channel_thresholds`` and per-label masks."""
    labels = np.asarray(labels)
    z = feats @ w.T > channel_thresholds(w, feats, labels)
    groups, sizes = np.unique(labels, return_counts=True)
    on = np.stack([z[labels == k].sum(axis=0) for k in groups], axis=1)
    per = _mi_table(sizes[0] - on[:, :1], sizes[1:] - on[:, 1:], on[:, :1], on[:, 1:], base)
    mi = per.max(axis=1)
    alpha = mi / mi.max() if mi.max() > 0.0 else np.zeros_like(mi)
    return alpha, per


def _threshold_case(name):
    rng = np.random.default_rng(11)
    if name in ("odd", "even"):
        n = 91 if name == "odd" else 90
        labels = rng.integers(0, 3, n)
        labels[:2] = [0, 1]
        return rng.standard_normal((16, 6)), rng.standard_normal((n, 6)), labels
    if name == "many-channels":
        # many channels, and an odd sample count
        labels = rng.integers(0, 3, 41)
        labels[:2] = [0, 1]
        return rng.standard_normal((300, 6)), rng.standard_normal((41, 6)), labels
    if name == "two-samples":
        return rng.standard_normal((5, 3)), rng.standard_normal((2, 3)), np.array([1, 0])
    if name == "middle-ties":
        # channel 0: sorted 1 2 2 2 | 3 3 3 4, both middle values tied (median 2.5);
        # channel 1: sorted 1 2 2 2 | 2 2 3 4, the middle values tied with each other
        col0 = np.array([3.0, 2.0, 1.0, 3.0, 4.0, 2.0, 3.0, 2.0])
        col1 = np.array([2.0, 4.0, 2.0, 1.0, 2.0, 3.0, 2.0, 2.0])
        return np.eye(2), np.stack([col0, col1], axis=1), np.array([0, 1, 0, 1, 1, 0, 1, 0])
    if name == "constant-channel":
        w = rng.standard_normal((6, 4))
        w[2] = 0.0
        labels = rng.integers(0, 2, 41)
        labels[:2] = [0, 1]
        return w, rng.standard_normal((41, 4)), labels
    assert name == "unequal-groups"
    labels = np.repeat([0, 2, 3, 7], [30, 8, 19, 33])
    rng.shuffle(labels)
    w = rng.integers(-2, 3, (24, 5)).astype(float)
    return w, rng.integers(-2, 3, (90, 5)).astype(float), labels


class TestDecouplerThresholds:
    @pytest.mark.parametrize(
        "name",
        [
            "odd",
            "even",
            "many-channels",
            "two-samples",
            "middle-ties",
            "constant-channel",
            "unequal-groups",
        ],
    )
    def test_bit_identical_to_median_reference(self, name):
        w, feats, labels = _threshold_case(name)
        dec = build_decoupler(w, feats, labels)
        alpha, per = reference_decoupler(w, feats, labels)
        assert np.array_equal(dec.per_concept_mi, per)
        assert np.array_equal(dec.alpha, alpha)

    @pytest.mark.parametrize("per_block", [1, 7, 299])
    def test_channel_blocks_are_bit_identical(self, monkeypatch, per_block):
        # blocks of 1, 7 and 299 of the 300 channels: the seams between
        # blocks change no bit. A block holds 2B - B // 8 bytes of budget B,
        # at least 15B/8, so this B is the first to hold per_block channels
        w, feats, labels = _threshold_case("many-channels")
        budget = -(-64 * len(labels) * per_block // 15)
        monkeypatch.setattr(informax, "_BLOCK_BYTES", budget)
        assert informax._channels_per_block(len(labels)) == per_block
        dec = build_decoupler(w, feats, labels)
        alpha, per = reference_decoupler(w, feats, labels)
        assert np.array_equal(dec.per_concept_mi, per)
        assert np.array_equal(dec.alpha, alpha)

    def test_middle_ties_case_thresholds(self):
        w, feats, labels = _threshold_case("middle-ties")
        assert np.array_equal(channel_thresholds(w, feats, labels), [2.5, 2.0])

    @pytest.mark.parametrize("name", ["odd", "even", "unequal-groups"])
    def test_independent_of_sample_order(self, name):
        w, feats, labels = _threshold_case(name)
        perm = np.random.default_rng(12).permutation(len(labels))
        base = build_decoupler(w, feats, labels)
        shuffled = build_decoupler(w, feats[perm], labels[perm])
        assert np.array_equal(base.alpha, shuffled.alpha)
        assert np.array_equal(base.per_concept_mi, shuffled.per_concept_mi)

    @pytest.mark.parametrize("n", [4800, 4801])
    def test_row_medians_partition_a_few_rows_at_a_time(self, n):
        # copies of 13 rows under the default budget, so the last of the 30
        # rows' copies holds 4; each copy stays within _BLOCK_BYTES // 8
        rng = np.random.default_rng(15)
        block = rng.integers(-3, 4, (30, n)).astype(float)  # ties at the middle
        block[::2] = rng.standard_normal((15, n))
        rows = _BLOCK_BYTES // 8 // (8 * n)
        assert rows == 13 and len(block) % rows
        tracemalloc.start()
        try:
            got = _row_medians(block)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, np.median(block, axis=1))
        assert peak <= _BLOCK_BYTES // 8 + 4096

    def test_peak_memory_is_two_activation_blocks(self):
        # the activations come a block of channels at a time under one byte
        # budget: the block and the median's partition copies, which take
        # 2 * _BLOCK_BYTES between them, the bits (a byte per
        # activation), the features' finite check (a byte per entry) and the
        # (channel, label) count and MI tables. All the activations at once
        # would be 37.5 MiB here.
        rng = np.random.default_rng(13)
        n, d_in, d = 2400, 512, 2048
        w = rng.standard_normal((d, d_in))
        feats = rng.standard_normal((n, d_in))
        labels = np.arange(n) % 100
        tracemalloc.start()
        try:
            build_decoupler(w, feats, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * _BLOCK_BYTES + n * d + n * d_in + 2 * d * 100 * 8


class TestDecouplerFromFile:
    @pytest.mark.parametrize("name", ["odd", "unequal-groups"])
    @pytest.mark.parametrize("per_block", [1, 7, 11])
    def test_streamed_samples_are_bit_identical(self, tmp_path, monkeypatch, name, per_block):
        # sample blocks of 1 and 7 rows and of 11, which divides neither
        # case's sample count (91 and 90 samples)
        w, feats, labels = _threshold_case(name)
        assert len(labels) % 11
        ref = build_decoupler(w, feats, labels)
        write_smat(tmp_path / "f.smat", feats)
        monkeypatch.setattr(informax, "_BLOCK_BYTES", per_block * 8 * feats.shape[1])
        with SmatRows(tmp_path / "f.smat") as source:
            dec = build_decoupler(w, source, labels)
        assert np.array_equal(dec.alpha, ref.alpha)
        assert np.array_equal(dec.mi_raw, ref.mi_raw)
        assert np.array_equal(dec.per_concept_mi, ref.per_concept_mi)
        assert dec.concept_labels == ref.concept_labels

    def test_cli_shape_reads_the_samples_three_times(self, tmp_path, monkeypatch):
        # 512 channels of N = 4800 samples at d_in = 512: 204 channels per
        # block, so three passes over the file, with the in-memory route's bits
        rng = np.random.default_rng(16)
        n, d = 4800, 512
        w = rng.standard_normal((d, d))
        feats = rng.standard_normal((n, d))
        labels = np.where(np.arange(n) < n // 2, 0, np.arange(n) % 300 + 1)
        ref = build_decoupler(w, feats, labels)
        write_smat(tmp_path / "f.smat", feats)
        passes = []
        blocks = SmatRows.blocks

        def counted(self):
            passes.append(self.shape)
            return blocks(self)

        monkeypatch.setattr(SmatRows, "blocks", counted)
        with SmatRows(tmp_path / "f.smat") as source:
            dec = build_decoupler(w, source, labels)
        assert passes == [(n, d)] * 3
        assert np.array_equal(dec.alpha, ref.alpha)
        assert np.array_equal(dec.mi_raw, ref.mi_raw)
        assert np.array_equal(dec.per_concept_mi, ref.per_concept_mi)

    def test_file_source_is_checked_like_an_array(self, tmp_path):
        w, feats, labels = _threshold_case("odd")
        write_smat(tmp_path / "f.smat", feats)
        with SmatRows(tmp_path / "f.smat") as source:
            with pytest.raises(ValueError, match="one entry per feature row"):
                build_decoupler(w, source, labels[1:])
            with pytest.raises(ValueError, match="does not match weight input size"):
                build_decoupler(w[:, 1:], source, labels)

    def test_peak_memory_stays_below_the_sample_matrix(self, tmp_path):
        # 18.75 MiB of samples on file: the decoupler holds a read block, a
        # block of activations and the median's partition copies, the bits and the
        # (channel, label) tables, never the samples
        rng = np.random.default_rng(14)
        n, d_in, d = 4800, 512, 128
        w = rng.standard_normal((d, d_in))
        feats = rng.standard_normal((n, d_in))
        labels = np.arange(n) % 300
        write_smat(tmp_path / "f.smat", feats)
        del feats
        with SmatRows(tmp_path / "f.smat") as source:
            tracemalloc.start()
            try:
                build_decoupler(w, source, labels)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 3 * _BLOCK_BYTES + n * d + 2 * d * 300 * 8
        assert peak < n * d_in * 8

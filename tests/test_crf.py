import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

import legal_sbd
from legal_sbd import crf
from legal_sbd.crf import (
    CrfModel,
    LabeledSequence,
    TrainingConfig,
    indicators,
    load_model,
    log_partition,
    marginals,
    model_to_json,
    nll_and_gradient,
    save_model,
    score,
    train,
    viterbi,
)
from legal_sbd.errors import DataError
from legal_sbd.spans import LABELS
from oracles import (
    brute_log_partition,
    brute_marginals,
    brute_transition_marginals,
    brute_viterbi,
    finite_difference_gradient,
    loop_backward,
    loop_forward,
    loop_viterbi,
    random_batch,
    random_features,
    random_model,
    term_by_term_score,
)


def zero_model(n_indicators=0):
    return CrfModel(
        state_weights={f"f{i}": np.zeros(len(LABELS)) for i in range(n_indicators)},
        transitions=np.zeros((5, 5)),
        start=np.zeros(5),
        end=np.zeros(5),
    )


class TestIndicators:
    def test_binarization(self):
        feats = {"bias": 1.0, "0:lower": True, "0:upper": False,
                 "0:special": "End", "0:length": 7}
        assert sorted(indicators(feats)) == [
            ("0:length", 7.0),
            ("0:lower=true", 1.0),
            ("0:special=End", 1.0),
            ("0:upper=false", 1.0),
            ("bias", 1.0),
        ]


class TestScore:
    def test_zero_weights_score_zero(self, rng):
        model = zero_model(3)
        feats = random_features(rng, 4, n_indicators=3)
        for labels in (["B", "I", "I", "L"], ["O"] * 4, ["U", "O", "U", "O"]):
            assert score(model, feats, labels) == 0.0

    def test_single_position_bias_only(self):
        model = zero_model()
        bias = np.zeros(5)
        bias[LABELS.index("U")] = 2.0
        model.state_weights = {**model.state_weights, "bias": bias}
        assert score(model, [{"bias": 1.0}], ["U"]) == pytest.approx(2.0)

    def test_matches_term_enumeration(self, rng):
        for _ in range(25):
            model = random_model(rng)
            feats = random_features(rng, 4)
            labels = [LABELS[int(rng.integers(5))] for _ in range(4)]
            assert score(model, feats, labels) == pytest.approx(
                term_by_term_score(model, feats, labels), rel=1e-12
            )

    def test_unknown_indicators_score_zero(self):
        model = zero_model()
        model.state_weights = {**model.state_weights, "known": np.ones(5)}
        got = score(model, [{"known": 1.0, "unknown": 9.0}], ["B"])
        assert got == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            score(zero_model(), [{"bias": 1.0}], ["B", "L"])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty sequence"):
            score(zero_model(), [], [])
        with pytest.raises(ValueError, match="empty sequence"):
            log_partition(zero_model(), [])


class TestLogPartition:
    def test_uniform_model_closed_form(self):
        model = zero_model(1)
        for length in (1, 2, 5, 9):
            feats = [{"f0": 1.0}] * length
            assert log_partition(model, feats) == pytest.approx(length * math.log(5))

    def test_length_one_closed_form(self, rng):
        model = random_model(rng, n_indicators=2)
        feats = random_features(rng, 1, n_indicators=2)
        want = np.logaddexp.reduce(
            [term_by_term_score(model, feats, [l]) for l in LABELS]
        )
        assert log_partition(model, feats) == pytest.approx(float(want), rel=1e-12)

    def test_matches_enumeration(self, rng):
        for _ in range(40):
            length = int(rng.integers(1, 7))
            model = random_model(rng, scale=float(rng.uniform(0.2, 3.0)))
            feats = random_features(rng, length)
            got = log_partition(model, feats)
            want = brute_log_partition(model, feats)
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_constant_shift_invariance(self, rng):
        # adding a constant to every label's state weight at one position
        # shifts log_partition and all sequence scores by that constant and
        # leaves the Viterbi argmax unchanged
        import copy

        model = random_model(rng)
        feats = random_features(rng, 5)
        feats[2] = dict(feats[2])
        feats[2]["position_marker"] = 1.0  # fires only at position 2
        base_lz = log_partition(model, feats)
        base_path = viterbi(model, feats)
        sample = [[LABELS[int(rng.integers(5))] for _ in feats] for _ in range(8)]
        base_scores = [score(model, feats, labels) for labels in sample]
        shifted = copy.deepcopy(model)
        shifted.state_weights = {**shifted.state_weights, "position_marker": np.full(5, 2.5)}
        assert log_partition(shifted, feats) == pytest.approx(base_lz + 2.5, rel=1e-12)
        assert viterbi(shifted, feats) == base_path
        for labels, base in zip(sample, base_scores):
            assert score(shifted, feats, labels) == pytest.approx(base + 2.5, rel=1e-12)


class TestViterbi:
    def test_zero_weights_tie_break_first_label(self):
        model = zero_model(1)
        assert viterbi(model, [{"f0": 1.0}] * 4) == ["B"] * 4

    def test_matches_enumeration_argmax(self, rng):
        for trial in range(40):
            length = int(rng.integers(1, 7))
            integer = trial % 2 == 1  # integer weights force exact ties
            model = random_model(rng, integer=integer)
            feats = random_features(rng, length, integer=integer)
            assert viterbi(model, feats) == brute_viterbi(model, feats)


class TestBlockedViterbi:
    """Sequences of at least _MIN_CUT positions are cut into blocks of
    _block_lengths positions and decoded by a blocked max-plus scan.  With
    integer weights every sum is exact, so its labels are the sequential
    loop's, ties included."""

    # every length up to here: uncut ones and four block lengths
    LENGTHS = range(1, 301)

    def test_loop_oracle_matches_enumeration(self, rng):
        for trial in range(20):
            integer = trial % 2 == 1
            model = random_model(rng, integer=integer)
            feats = random_features(rng, int(rng.integers(1, 7)), integer=integer)
            assert loop_viterbi(model, feats) == brute_viterbi(model, feats)

    def test_block_lengths_follow_the_rule(self):
        lengths = np.arange(1, 100_000)
        block = crf._block_lengths(lengths)
        short = lengths < crf._MIN_CUT
        np.testing.assert_array_equal(block[short], lengths[short])
        cut, b = lengths[~short], block[~short]
        assert np.isin(b, crf._LADDER).all()
        assert (3 * b * b >= cut).all()  # the least ladder value that does
        smaller = crf._LADDER[np.searchsorted(crf._LADDER, b) - 1]
        assert (3 * smaller * smaller < cut).all()
        assert ((cut - 1) // b >= 2).all()  # every cut sequence has 3 pieces or more
        tested = np.array(self.LENGTHS)
        tested = tested[tested >= crf._MIN_CUT]
        assert sorted(set(crf._block_lengths(tested).tolist())) == [4, 6, 8, 12]

    def test_every_length_decodes_like_the_loop(self, rng):
        model = random_model(rng, integer=True)
        sequences = [random_features(rng, n, integer=True) for n in self.LENGTHS]
        want = [loop_viterbi(model, seq) for seq in sequences]
        for seq, labels in zip(sequences, want):
            assert viterbi(model, seq) == labels
        # all at once, longest and shortest interleaved
        order = np.argsort(rng.random(len(sequences)))
        flat = [fv for j in order for fv in sequences[j]]
        lengths = [len(sequences[j]) for j in order]
        assert viterbi(model, flat, lengths) == [label for j in order for label in want[j]]

    def test_long_integer_sequence_decodes_like_the_loop(self, rng):
        model = random_model(rng, integer=True)
        feats = random_features(rng, 5000, integer=True)
        assert len(feats) > 10 * crf._MIN_CUT
        assert viterbi(model, feats) == loop_viterbi(model, feats)

    def test_long_sequence_labels_do_not_depend_on_batch_mates(self, rng):
        # real weights: the scan's rounding must be the sequence's own.
        # Uncut sequences share a grid, and so do the cut sequences of each
        # of six block lengths
        model = random_model(rng)
        cut = crf._MIN_CUT
        lengths = [3, 2000, cut - 1, 1, cut, cut + 1, 108, 109, 700, 193, 40]
        blocks = crf._block_lengths(np.array(lengths))[np.array(lengths) >= cut]
        assert sorted(set(blocks.tolist())) == [4, 6, 8, 12, 16, 32]
        sequences = [random_features(rng, n) for n in lengths]
        flat = [fv for seq in sequences for fv in seq]
        alone = [label for seq in sequences for label in viterbi(model, seq)]
        assert viterbi(model, flat, lengths) == alone

    @staticmethod
    def decode_like_the_loop(rng, lengths):
        # integer weights: each sequence alone, and all of them in one call,
        # get the loop's labels
        model = random_model(rng, integer=True)
        sequences = [random_features(rng, n, integer=True) for n in lengths]
        want = [loop_viterbi(model, seq) for seq in sequences]
        for seq, labels in zip(sequences, want):
            assert viterbi(model, seq) == labels
        flat = [fv for seq in sequences for fv in seq]
        assert viterbi(model, flat, lengths) == [label for labels in want for label in labels]

    def test_lengths_at_block_edges(self, rng):
        # either side of the cut and of every change of block length up to
        # 3 * 24**2, and of a change in the number of blocks
        lengths = [crf._MIN_CUT - 1, crf._MIN_CUT, crf._MIN_CUT + 1]
        for b in (4, 6, 8, 12, 16, 24):
            lengths += [3 * b * b, 3 * b * b + 1, 5 * b + 1, 5 * b + 2]
        self.decode_like_the_loop(rng, sorted(n for n in set(lengths) if n >= crf._MIN_CUT - 1))

    # block length b -> the least and the greatest n whose n * b is cut
    # into blocks of b
    SPANS = {4: (10, 12), 6: (9, 18), 8: (14, 24), 12: (17, 36)}
    # lengths, then _BACK_CHUNK and _CUT_ROWS, None for the module's own
    GRIDS = {
        "block multiples": (
            [n * b + d for b, ns in SPANS.items() for n in ns for d in (-1, 0, 1)], None, None
        ),
        # a one-block grid beside a cut one
        "uncut beside cut": ([crf._MIN_CUT - 1, crf._MIN_CUT], None, None),
        "equal lengths": ([57, 30, 57, 1, 57, 30, 1, 130, 130], None, None),
        # one grid of blocks of 8, 14, 19 and 24 of them, beside a one-block grid
        "block counts differ": ([150, 109, 192, 20], None, None),
        # transfer matrices 5 blocks at a time, so chunks start inside and
        # between sequences
        "chunked transfer": ([193, 41, 57, 44, 109, 40, 300], 5, None),
        # a new grid wherever a sequence has at most half the rows of its
        # grid's first
        "cut grids": ([*range(1, crf._MIN_CUT), 108, 54, 50, 109, 192], None, 1),
    }

    @pytest.mark.parametrize("case", GRIDS)
    def test_grids_decode_like_the_loop(self, rng, monkeypatch, case):
        lengths, chunk, cut_rows = self.GRIDS[case]
        if chunk:
            monkeypatch.setattr(crf, "_BACK_CHUNK", chunk)
        if cut_rows:
            monkeypatch.setattr(crf, "_CUT_ROWS", cut_rows)
        self.decode_like_the_loop(rng, lengths)

    @pytest.mark.parametrize(
        "lengths, b, chunk",
        [
            ([48, 44, 40], 4, None),  # 12, 11 and 10 blocks; 40 ends on a full block
            ([108, 60, 54, 50], 6, 5),  # 18, 10, 9 and 9 blocks, 5 at a time
            ([39, 39, 20, 1], 39, None),  # one block each
        ],
    )
    def test_grid_rows_are_the_loop_scores(self, rng, monkeypatch, lengths, b, chunk):
        # with integer weights, every row of a sequence's decoded grid is the
        # loop's best score per label, the chain's exit rows included; with
        # real weights, its rows are the bits it gets in a grid of its own
        if chunk:
            monkeypatch.setattr(crf, "_BACK_CHUNK", chunk)
        pieces = (np.array(lengths) - 1) // b + 1

        def decoded(model, unary):
            G = np.zeros((len(unary), pieces[0], b, len(LABELS)))
            for rows, U in zip(G.reshape(len(unary), -1, len(LABELS)), unary):
                rows[: len(U)] = U
            crf._decode_grid(G, pieces[: len(unary)], model)
            return [rows[: len(U)] for rows, U in zip(G.reshape(len(unary), -1, len(LABELS)), unary)]

        model = random_model(rng, integer=True)
        unary = [rng.integers(-2, 3, size=(n, len(LABELS))).astype(float) for n in lengths]
        for got, U in zip(decoded(model, unary), unary):
            best = model.start + U[0]
            np.testing.assert_array_equal(got[0], best)
            for row, u in zip(got[1:], U[1:]):
                best = (best[:, None] + model.transitions).max(axis=0) + u
                np.testing.assert_array_equal(row, best)
        model = random_model(rng)
        unary = [rng.normal(size=(n, len(LABELS))) for n in lengths]
        for s, got in enumerate(decoded(model, unary)):
            pieces_alone = pieces[s : s + 1]
            G = np.zeros((1, pieces_alone[0], b, len(LABELS)))
            G.reshape(-1, len(LABELS))[: lengths[s]] = unary[s]
            crf._decode_grid(G, pieces_alone, model)
            assert G.reshape(-1, len(LABELS))[: lengths[s]].tobytes() == got.tobytes()

    def test_grid_cases_hold_their_layouts(self):
        for b, (least, greatest) in self.SPANS.items():
            multiples = b * np.array([least - 1, least, greatest, greatest + 1])
            assert (crf._block_lengths(multiples) == b).tolist() == [False, True, True, False]
        counts = np.array(self.GRIDS["block counts differ"][0][:3])
        assert set(crf._block_lengths(counts).tolist()) == {8}
        assert sorted(((counts - 1) // 8 + 1).tolist()) == [14, 19, 24]

    def test_wide_packed_steps_decode_like_the_loop(self, rng):
        # no sequence is cut, so all share one grid, 16 or more of them
        # longer than one position
        for _ in range(3):
            model = random_model(rng, integer=True)
            lengths = rng.integers(1, crf._MIN_CUT, size=32).tolist()
            assert max(lengths) < crf._MIN_CUT
            assert sum(n > 1 for n in lengths) >= 16
            sequences = [random_features(rng, n, integer=True) for n in lengths]
            flat = [fv for seq in sequences for fv in seq]
            want = [label for seq in sequences for label in loop_viterbi(model, seq)]
            assert viterbi(model, flat, lengths) == want

    def test_transfer_chunks_decode_like_the_loop(self, rng, monkeypatch):
        # the transfer matrices of a block length run a few blocks at a
        # time, so chunk edges fall inside the opening blocks and after them
        monkeypatch.setattr(crf, "_BACK_CHUNK", 5)
        model = random_model(rng, integer=True)
        lengths = rng.permutation(np.repeat(np.arange(1, 130), 2)).tolist()
        sequences = [random_features(rng, n, integer=True) for n in lengths]
        flat = [fv for seq in sequences for fv in seq]
        want = [label for seq in sequences for label in loop_viterbi(model, seq)]
        assert viterbi(model, flat, lengths) == want

    def test_blocked_scratch_stays_bounded(self, rng, monkeypatch):
        # 1,000 texts of 40-48 tokens, cut into blocks of 4, about 11,000
        # blocks: the transfer matrices' (L, L, L) scratch is taken
        # _BACK_CHUNK blocks at a time, so the peak stays near that of
        # decoding the same texts uncut, one step per position
        monkeypatch.setattr(crf, "_BACK_CHUNK", 1024)
        lengths = rng.integers(crf._MIN_CUT, 49, size=1000).tolist()
        assert set(crf._block_lengths(np.array(lengths)).tolist()) == {4}
        U = rng.normal(size=(sum(lengths), len(LABELS)))
        monkeypatch.setattr(crf, "_unary_matrix", lambda model, features, lengths: U.copy())
        model = random_model(rng)

        def peak():
            tracemalloc.start()
            try:
                labels = viterbi(model, range(len(U)), lengths)
                return tracemalloc.get_traced_memory()[1], labels
            finally:
                tracemalloc.stop()

        blocked, labels = peak()
        monkeypatch.setattr(crf, "_block_lengths", lambda lengths: lengths)
        uncut, want = peak()
        assert labels == want
        assert blocked <= 1.6 * uncut

    @pytest.mark.parametrize(
        "rows", [1, crf._BACK_CHUNK - 1, crf._BACK_CHUNK, crf._BACK_CHUNK + 1]
    )
    def test_back_pointers_are_the_first_argmax(self, rng, rows):
        D = rng.integers(-1, 2, size=(rows + 2, len(LABELS))).astype(float)
        trans = rng.integers(-1, 2, size=(len(LABELS), len(LABELS))).astype(float)
        prev = rng.integers(-1, len(D), size=rows)
        sums = D[prev][:, :, None] + trans
        if rows > 1:  # ties everywhere: a quarter of the maxima or more are shared
            assert ((sums == sums.max(axis=1, keepdims=True)).sum(axis=1) > 1).mean() > 0.25
        back = crf._back_pointers(D[prev], trans)
        assert back.dtype == np.uint8
        # np.argmax picks the first maximum, the lowest label
        np.testing.assert_array_equal(back, np.argmax(sums, axis=1))


class TestMarginals:
    def test_rows_sum_to_one(self, rng):
        for _ in range(10):
            model = random_model(rng, scale=2.0)
            feats = random_features(rng, int(rng.integers(1, 30)))
            m = marginals(model, feats)
            np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)

    def test_matches_enumeration(self, rng):
        for _ in range(10):
            model = random_model(rng)
            feats = random_features(rng, int(rng.integers(1, 6)))
            np.testing.assert_allclose(
                marginals(model, feats), brute_marginals(model, feats), atol=1e-10
            )


class TestNllAndGradient:
    def test_uniform_start_gradient(self):
        # zero weights, one length-1 sequence, gold U, only bias active:
        # expected count 1/5 everywhere, observed 1 at U
        model = zero_model()
        model.state_weights = {**model.state_weights, "bias": np.zeros(5)}
        batch = [LabeledSequence([{"bias": 1.0}], ["U"])]
        value, grad = nll_and_gradient(model, batch, TrainingConfig(c1=0.0, c2=0.0))
        assert value == pytest.approx(math.log(5))
        want = np.full(5, 0.2)
        want[LABELS.index("U")] -= 1.0
        np.testing.assert_allclose(grad.state_weights["bias"], want, atol=1e-12)
        np.testing.assert_allclose(grad.start, want, atol=1e-12)
        np.testing.assert_allclose(grad.end, want, atol=1e-12)

    def test_nll_is_nonnegative(self, rng):
        for _ in range(10):
            model = random_model(rng)
            batch = random_batch(rng)
            value, _ = nll_and_gradient(model, batch, TrainingConfig(c1=0.0, c2=0.0))
            assert value >= -1e-12

    def test_gradient_matches_finite_differences(self, rng):
        config = TrainingConfig(c1=0.0, c2=0.01)
        for _ in range(6):
            model = random_model(rng, n_indicators=3, scale=0.5)
            batch = random_batch(rng)
            _, grad = nll_and_gradient(model, batch, config)
            fd_state, fd_arrays = finite_difference_gradient(model, batch, config)
            for ind, row in fd_state.items():
                err = np.abs(grad.state_weights[ind] - row) / np.maximum(1.0, np.abs(row))
                assert err.max() <= 1e-6
            for name in ("transitions", "start", "end"):
                got = getattr(grad, name)
                want = fd_arrays[name]
                err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
                assert err.max() <= 1e-6

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            nll_and_gradient(zero_model(), [], TrainingConfig())

    def test_batched_objective_matches_per_sequence_api(self, rng):
        # one packed forward-backward over a ragged batch, given out of
        # length order and with repeated lengths, against the public
        # one-sequence-at-a-time functions
        config = TrainingConfig(c1=0.0, c2=0.01)
        model = random_model(rng, scale=0.8)
        lengths = [23, 1, 60, 23, 7, 60, 1, 41, 7, 15]
        batch = []
        for n in lengths:
            labels = [LABELS[int(rng.integers(len(LABELS)))] for _ in range(n)]
            batch.append(LabeledSequence(random_features(rng, n), labels))
        value, grad = nll_and_gradient(model, batch, config)

        weights = [*model.state_weights.values(), model.transitions, model.start, model.end]
        l2 = config.c2 * sum(float(np.sum(w * w)) for w in weights)
        want = l2 + sum(
            log_partition(model, seq.features) - score(model, seq.features, seq.labels)
            for seq in batch
        )
        assert abs(value - want) <= 1e-10 * abs(want)

        want_start = 2.0 * config.c2 * model.start
        want_end = 2.0 * config.c2 * model.end
        for seq in batch:
            m = marginals(model, seq.features)
            want_start = want_start + m[0]
            want_end = want_end + m[-1]
            want_start[LABELS.index(seq.labels[0])] -= 1.0
            want_end[LABELS.index(seq.labels[-1])] -= 1.0
        np.testing.assert_allclose(grad.start, want_start, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(grad.end, want_end, rtol=1e-10, atol=1e-10)


def tiny_training_batch():
    # two-token "sentences": f_up fires on sentence-initial tokens,
    # f_dot on terminators
    seqs = []
    for _ in range(4):
        seqs.append(
            LabeledSequence(
                [{"bias": 1.0, "up": True}, {"bias": 1.0, "dot": True},
                 {"bias": 1.0, "ws": True},
                 {"bias": 1.0, "up": True}, {"bias": 1.0, "dot": True}],
                ["B", "L", "O", "B", "L"],
            )
        )
    return seqs


class TestTrain:
    def test_learns_tiny_pattern(self):
        model = train(tiny_training_batch(), TrainingConfig(max_iterations=60))
        got = viterbi(
            model,
            [{"bias": 1.0, "up": True}, {"bias": 1.0, "dot": True},
             {"bias": 1.0, "ws": True},
             {"bias": 1.0, "up": True}, {"bias": 1.0, "dot": True}],
        )
        assert got == ["B", "L", "O", "B", "L"]

    def test_transitions_dense_even_for_unseen_pairs(self):
        model = train(tiny_training_batch(), TrainingConfig(max_iterations=10))
        assert model.transitions.shape == (5, 5)
        assert np.all(np.isfinite(model.transitions))

    def test_deterministic_weights(self):
        a = train(tiny_training_batch(), TrainingConfig(max_iterations=25))
        b = train(tiny_training_batch(), TrainingConfig(max_iterations=25))
        assert sorted(a.state_weights) == sorted(b.state_weights)
        for key, row in a.state_weights.items():
            assert np.array_equal(row, b.state_weights[key])
        assert np.array_equal(a.transitions, b.transitions)
        assert np.array_equal(a.start, b.start)
        assert np.array_equal(a.end, b.end)

    def test_same_model_at_every_blas_thread_count(self):
        # a threaded BLAS dot product sums in an order set by its thread
        # count; 50 documents make the vectors long enough to split
        child = (
            "import sys\n"
            "from legal_sbd.crf import TrainingConfig, model_to_json\n"
            "from legal_sbd.pipeline import train_on_documents\n"
            "from legal_sbd.synthetic import make_corpus\n"
            "docs = make_corpus(50, seed=2301)\n"
            "model = train_on_documents(docs, TrainingConfig(max_iterations=5))\n"
            "sys.stdout.write(model_to_json(model))\n"
        )
        src = str(Path(legal_sbd.__file__).resolve().parent.parent)
        outputs = []
        # a second hash seed too: no vocabulary, factoring or compile order
        # may follow set or dict hash order
        for threads, hash_seed in (("1", "0"), ("2", "1")):
            env = dict(
                os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONHASHSEED=hash_seed, PYTHONPATH=src
            )
            done = subprocess.run(
                [sys.executable, "-c", child], env=env, capture_output=True, text=True,
                timeout=300, check=True,
            )
            outputs.append(hashlib.sha256(done.stdout.encode()).hexdigest())
        assert outputs[0] == outputs[1]

    def test_huge_l2_crushes_weights(self):
        model = train(
            tiny_training_batch(),
            TrainingConfig(c1=0.0, c2=1e6, max_iterations=50),
        )
        for row in model.state_weights.values():
            assert np.max(np.abs(row)) < 1e-3
        assert np.max(np.abs(model.transitions)) < 1e-3

    def test_objective_evaluations_recorded(self):
        model = train(tiny_training_batch(), TrainingConfig(max_iterations=25))
        meta = model.metadata
        assert meta["objective_evaluations"] >= meta["iterations_run"] + 1

    def test_paper_default_config_recorded(self):
        model = train(tiny_training_batch(), TrainingConfig(max_iterations=5))
        assert model.metadata["c1"] == 1.0
        assert model.metadata["c2"] == 0.001
        assert model.metadata["iterations_run"] <= 5
        assert model.metadata["format_version"] == 1

    def test_l1_produces_sparse_models(self):
        dense = train(tiny_training_batch(), TrainingConfig(c1=0.0, max_iterations=40))
        sparse = train(tiny_training_batch(), TrainingConfig(c1=2.0, max_iterations=40))
        count = lambda m: sum(int(np.count_nonzero(r)) for r in m.state_weights.values())
        assert count(sparse) < count(dense)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            train([], TrainingConfig())
        with pytest.raises(DataError, match="empty feature space"):
            train([LabeledSequence([{}], ["O"])], TrainingConfig())

    def test_empty_sequence_or_label_mismatch_rejected(self):
        with pytest.raises(DataError, match="sequence 1 is empty"):
            train([LabeledSequence([{"bias": 1.0}], ["O"]), LabeledSequence([], [])])
        with pytest.raises(DataError, match="sequence 0: 1 positions vs 2 labels"):
            train([LabeledSequence([{"bias": 1.0}], ["O", "O"])])

    def test_invalid_config_rejected(self):
        with pytest.raises(DataError):
            train(tiny_training_batch(), TrainingConfig(c1=-1.0))
        with pytest.raises(DataError):
            train(tiny_training_batch(), TrainingConfig(max_iterations=0))

    @pytest.mark.parametrize("name, value", [
        ("c1", math.nan), ("c1", math.inf), ("c2", math.nan), ("c2", math.inf),
        ("convergence_tol", math.nan), ("lbfgs_memory", 0),
    ])
    def test_non_finite_knob_or_empty_memory_rejected(self, name, value):
        # such a knob must reach neither the optimizer nor the model metadata
        with pytest.raises(DataError, match=name):
            train(tiny_training_batch(), TrainingConfig(**{name: value}))

    @pytest.mark.parametrize("name, value", [
        ("max_iterations", 2.5), ("max_iterations", True), ("lbfgs_memory", 10.0),
        ("lbfgs_memory", True), ("c1", "1"), ("c2", None), ("convergence_tol", True),
        ("max_iterations", np.int64(5)),
    ])
    def test_knob_of_the_wrong_type_rejected(self, name, value):
        # 2.5 would fail inside the optimizer once the corpus is encoded,
        # True would run as 1, and "1" would fail in math.isfinite
        with pytest.raises(DataError, match=f"{name} must be"):
            TrainingConfig(**{name: value})

    def test_config_is_frozen_and_checked_again_when_replaced(self):
        config = TrainingConfig()
        with pytest.raises(FrozenInstanceError):
            config.max_iterations = 0
        with pytest.raises(DataError, match="^max_iterations must be an integer >= 1, got 0$"):
            replace(config, max_iterations=0)

    def test_nll_and_gradient_validates_its_config(self):
        with pytest.raises(DataError, match="regularizers must be >= 0"):
            nll_and_gradient(zero_model(), tiny_training_batch(), TrainingConfig(c2=-5.0))


class TestUnknownLabel:
    # the one label table is spans.LABELS; every entry point that reads
    # gold labels names a label outside it
    @pytest.mark.parametrize("call", [
        lambda seq: score(zero_model(), seq.features, seq.labels),
        lambda seq: train([seq]),
        lambda seq: nll_and_gradient(zero_model(), [seq], TrainingConfig()),
    ], ids=["score", "train", "nll_and_gradient"])
    def test_label_outside_labels_is_named(self, call):
        seq = LabeledSequence([{"bias": 1.0}, {"bias": 1.0}], ["B", "Q"])
        with pytest.raises(DataError, match="unknown label 'Q'"):
            call(seq)


class TestSerialization:
    def test_weights_written_with_17_significant_digits(self, small_model):
        text = model_to_json(small_model)
        some_weight = next(iter(small_model.state_weights.values()))
        nonzero = next(w for w in some_weight if w != 0.0)
        assert format(float(nonzero), ".17g") in text

    def test_save_load_round_trip(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model, path)
        loaded = load_model(path)
        assert sorted(loaded.state_weights) == sorted(small_model.state_weights)
        for key, row in small_model.state_weights.items():
            assert np.array_equal(loaded.state_weights[key], row)
        assert np.array_equal(loaded.transitions, small_model.transitions)
        assert np.array_equal(loaded.start, small_model.start)
        assert np.array_equal(loaded.end, small_model.end)
        assert loaded.metadata == {
            k: v for k, v in small_model.metadata.items()
        }

    def test_double_save_is_byte_identical(self, small_model, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        save_model(small_model, a)
        save_model(load_model(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_failed_save_leaves_the_existing_file(self, small_model, tmp_path):
        # Python-built text can hold a lone surrogate, which UTF-8 cannot encode
        path = tmp_path / "model.json"
        save_model(small_model, path)
        before = path.read_bytes()
        bad = replace(small_model, state_weights={
            **small_model.state_weights, "0:lowercase=a\ud800": np.ones(len(LABELS)),
        })
        with pytest.raises(DataError, match=r"model\.json: model indicator '0:lowercase=a\\ud800'"):
            save_model(bad, path)
        assert path.read_bytes() == before
        bad = replace(small_model, metadata={**small_model.metadata, "note": "\udfff"})
        with pytest.raises(DataError, match="model metadata holds"):
            save_model(bad, path)
        assert path.read_bytes() == before

    def test_identical_viterbi_after_round_trip(self, small_model, tmp_path, rng):
        from legal_sbd.pipeline import predict_documents
        from legal_sbd.synthetic import make_corpus

        path = tmp_path / "model.json"
        save_model(small_model, path)
        loaded = load_model(path)
        for doc in make_corpus(5, seed=400, id_prefix="heldout"):
            assert predict_documents(loaded, [doc])[0] == predict_documents(small_model, [doc])[0]

    def test_unknown_version_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model, path)
        hacked = path.read_text().replace('"version": 1', '"version": 99', 1)
        path.write_text(hacked)
        with pytest.raises(DataError, match=r"model\.json: unsupported model file version 99"):
            load_model(path)

    @pytest.mark.parametrize("version", ["true", "1.0"])
    def test_version_other_than_the_integer_1_rejected(self, small_model, tmp_path, version):
        # both equal 1 in Python, and no writer ever wrote them
        path = tmp_path / "model.json"
        path.write_text(model_to_json(small_model).replace('"version": 1', f'"version": {version}', 1))
        with pytest.raises(DataError, match=rf"model\.json: unsupported model file version {version.title()}"):
            load_model(path)

    @staticmethod
    def _rewritten(model, path, edit):
        obj = json.loads(model_to_json(model))
        edit(obj)
        path.write_text(json.dumps(obj))  # json writes NaN and Infinity as such
        return path

    def test_non_finite_state_weight_rejected(self, small_model, tmp_path):
        def edit(obj):
            obj["state_weights"][0][2] = float("nan")

        path = self._rewritten(small_model, tmp_path / "model.json", edit)
        with pytest.raises(DataError, match="non-finite"):
            load_model(path)

    def test_label_set_without_o_rejected(self, small_model, tmp_path):
        def edit(obj):
            obj["labels"] = ["B", "I", "L", "X", "U"]
            obj["state_weights"] = [t for t in obj["state_weights"] if t[1] != "O"]

        path = self._rewritten(small_model, tmp_path / "model.json", edit)
        with pytest.raises(DataError, match="label set .* is not"):
            load_model(path)

    def test_repeated_label_rejected(self, small_model, tmp_path):
        def edit(obj):
            obj["labels"] = ["B", "I", "L", "O", "O"]
            obj["state_weights"] = [t for t in obj["state_weights"] if t[1] != "U"]

        path = self._rewritten(small_model, tmp_path / "model.json", edit)
        with pytest.raises(DataError, match="label set .* is not"):
            load_model(path)

    @pytest.mark.parametrize("labels", [["O", "X", "Y", "Z", "W"], ["O", 1, 2, 3, 4]])
    def test_label_set_other_than_bilou_rejected(self, small_model, tmp_path, labels):
        # a set the decoder cannot read, even with 'O' and five distinct labels
        def edit(obj):
            obj["labels"] = labels
            obj["state_weights"] = [t for t in obj["state_weights"] if t[1] in labels]

        path = self._rewritten(small_model, tmp_path / "model.json", edit)
        with pytest.raises(DataError, match="label set .* is not"):
            load_model(path)

    WEIGHT_SLOTS = {  # one weight of each kind, by where it sits in the file
        "state_weights": lambda obj: (obj["state_weights"][0], 2),
        "transitions": lambda obj: (obj["transitions"][1], 2),
        "start": lambda obj: (obj["start"], 3),
        "end": lambda obj: (obj["end"], 0),
    }

    @pytest.mark.parametrize("field", sorted(WEIGHT_SLOTS))
    def test_weight_that_is_not_a_json_number_rejected(self, small_model, tmp_path, field):
        for value in ("0.5", True, False):
            def edit(obj):
                container, at = self.WEIGHT_SLOTS[field](obj)
                container[at] = value

            path = self._rewritten(small_model, tmp_path / "model.json", edit)
            with pytest.raises(DataError, match=r"model\.json: corrupt model file: .* is not a number"):
                load_model(path)

    @pytest.mark.parametrize("indicator", [5, None, ["bias"], True])
    def test_indicator_that_is_not_a_string_rejected(self, small_model, tmp_path, indicator):
        # no feature map emits it, so its weight would be dead, and saving
        # the model could not sort it among the string indicators
        def edit(obj):
            obj["state_weights"].append([indicator, "B", 0.25])

        path = self._rewritten(small_model, tmp_path / "model.json", edit)
        with pytest.raises(DataError, match=r"model\.json: corrupt model file: .* is not a string"):
            load_model(path)

    def test_integer_weights_load(self, small_model, tmp_path):
        def edit(obj):
            for slot in self.WEIGHT_SLOTS.values():
                container, at = slot(obj)
                container[at] = 2

        loaded = load_model(self._rewritten(small_model, tmp_path / "model.json", edit))
        rewritten = json.loads(model_to_json(loaded))
        for slot in self.WEIGHT_SLOTS.values():
            container, at = slot(rewritten)
            assert container[at] == 2

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        for text in ("{not json", "[1, 2]"):
            path.write_text(text)
            with pytest.raises(DataError, match=r"model\.json: corrupt model file: "):
                load_model(path)

    def test_duplicate_state_weight_rejected(self, small_model, tmp_path):
        # model_to_json writes each (indicator, label) once; a second
        # triple would silently replace the first
        def edit(obj):
            obj["state_weights"] = [["bias", "B", 1.0], ["bias", "B", -3.0]]

        path = self._rewritten(small_model, tmp_path / "model.json", edit)
        message = r"model\.json: corrupt model file: indicator 'bias' has two weights for label 'B'"
        with pytest.raises(DataError, match=message):
            load_model(path)

    @pytest.mark.parametrize("metadata", [[["a", 1]], "ab", None, 3])
    def test_metadata_that_is_not_an_object_rejected(self, small_model, tmp_path, metadata):
        def edit(obj):
            obj["metadata"] = metadata

        path = self._rewritten(small_model, tmp_path / "model.json", edit)
        message = r"model\.json: corrupt model file: metadata .* is not an object"
        with pytest.raises(DataError, match=message):
            load_model(path)

    def test_transition_matrix_of_another_shape_rejected(self, small_model, tmp_path):
        def edit(obj):
            obj["transitions"] = [row[:4] for row in obj["transitions"][:4]]

        path = self._rewritten(small_model, tmp_path / "model.json", edit)
        with pytest.raises(DataError, match=r"model\.json: model weight shapes do not match"):
            load_model(path)

    @pytest.mark.parametrize("name", ["transitions", "start", "end"])
    def test_non_finite_weights_are_not_written(self, small_model, name):
        weights = getattr(small_model, name).copy()
        weights.flat[1] = math.inf
        with pytest.raises(DataError, match=f"model has non-finite {name} weights"):
            model_to_json(replace(small_model, **{name: weights}))

    def test_non_finite_state_row_is_not_written(self, small_model):
        state_weights = {**small_model.state_weights, "bias": np.array([0.0, math.nan, 0, 0, 0])}
        with pytest.raises(DataError, match="model has non-finite weights for indicator 'bias'"):
            model_to_json(replace(small_model, state_weights=state_weights))


def packed_unary(unaries, packing):
    """The rows of per-sequence unary matrices in packed order."""
    return np.array([unaries[s][t] for s, t in zip(packing.seq, packing.step)])


def log_space_posteriors(U, trans, start, end, packing):
    """``crf._posteriors`` from the log-space recursions, the expected
    transition counts summed row by row."""
    from legal_sbd.crf import _log_backward, _log_forward, _logsumexp

    seq = packing.seq
    alpha = _log_forward(U, trans, start, packing)
    beta = _log_backward(U, trans, end, packing)
    log_z = _logsumexp(alpha[packing.last] + end)
    counts = np.zeros((5, 5))
    for j, r in enumerate(range(packing.batch_sizes[0], len(U))):
        p = alpha[packing.prev[j], :, None] + trans + (U[r] + beta[r])[None, :]
        counts += np.exp(p - log_z[seq[r]])
    return log_z, np.exp(alpha + beta - log_z[seq, None]), counts


def row_products(U, trans, start, end, packing):
    """a[r] @ b[r] on every packed row of the scaled passes, once b is
    divided by a[last] @ b[last] of its sequence as ``_posteriors`` does."""
    from legal_sbd.crf import _backward, _forward

    E, _ = _forward(U, trans, start, packing)
    _backward(E, end, packing)
    a, b = packing.a, packing.b
    z = (a[packing.last] * b[packing.last]).sum(axis=1)
    return (a * b).sum(axis=1) / z[packing.seq]


def assert_matches_log_space(U, trans, start, end, packing):
    from legal_sbd.crf import _posteriors

    log_z, m, e_trans = _posteriors(U, trans, start, end, packing)
    want_z, want_m, want_trans = log_space_posteriors(U, trans, start, end, packing)
    np.testing.assert_allclose(log_z, want_z, rtol=1e-12)
    np.testing.assert_allclose(m, want_m, atol=1e-10)
    np.testing.assert_allclose(e_trans, want_trans, atol=1e-10)
    np.testing.assert_allclose(row_products(U, trans, start, end, packing), 1.0, rtol=0, atol=1e-9)


class TestForwardBackwardAgreement:
    def test_alpha_beta_consistent_at_every_position(self, rng):
        # a[r] @ b[r] must be 1 at every position once b is divided by its
        # value at the last one, and the posteriors must be the log path's
        from legal_sbd.crf import _pack, _unary_matrix

        for _ in range(20):
            model = random_model(rng, scale=float(rng.uniform(0.5, 2.5)))
            feats = random_features(rng, int(rng.integers(1, 60)))
            unary = _unary_matrix(model, feats)
            packing = _pack(np.array([len(feats)]))
            assert_matches_log_space(unary, model.transitions, model.start, model.end, packing)

    def test_packed_rows_match_single_sequences(self, rng):
        # sorted longest first (stably), step t holds the sequences longer
        # than t, and each sequence's rows see only its own predecessors
        from legal_sbd.crf import _pack, _posteriors, _unary_matrix

        model = random_model(rng, scale=1.5)
        weights = (model.transitions, model.start, model.end)
        lengths = np.array([4, 9, 1, 9, 6])
        unaries = [_unary_matrix(model, random_features(rng, n)) for n in lengths]
        packing = _pack(lengths)
        assert packing.batch_sizes == [5, 4, 4, 4, 3, 3, 2, 2, 2]
        assert packing.seq[:5].tolist() == [1, 3, 4, 0, 2]
        log_z, m, e_trans = _posteriors(packed_unary(unaries, packing), *weights, packing)
        summed = np.zeros((5, 5))
        for s, unary in enumerate(unaries):
            rows = np.flatnonzero(packing.seq == s)
            assert packing.step[rows].tolist() == list(range(len(unary)))
            assert packing.last[s] == rows[-1]
            alone_z, alone_m, alone_trans = _posteriors(unary, *weights, _pack(lengths[s : s + 1]))
            np.testing.assert_allclose(log_z[s], alone_z[0], rtol=1e-12)
            np.testing.assert_allclose(m[rows], alone_m, atol=1e-10)
            summed += alone_trans
        np.testing.assert_allclose(e_trans, summed, atol=1e-10)

    def test_step_table_continues_the_step_before(self, rng):
        # the invariant every packed recursion relies on: step t >= 1 is
        # (first row of step t - 1, first row of step t, rows of step t)
        from legal_sbd.crf import _pack

        batches = [np.array([7]), np.ones(6, dtype=int), np.full(4, 5), np.array([4, 9, 1, 9, 6])]
        batches += [rng.integers(1, 30, size=int(rng.integers(1, 12))) for _ in range(20)]
        for lengths in batches:
            packing = _pack(lengths)
            n0 = packing.batch_sizes[0]
            assert len(packing.steps) == lengths.max() - 1
            covered = []
            for before, lo, n in packing.steps:
                covered += range(lo, lo + n)
                assert packing.prev[lo - n0 : lo - n0 + n].tolist() == list(range(before, before + n))
            assert covered == list(range(n0, lengths.sum()))

    @pytest.mark.parametrize("kind", ["random", "integer", "extreme"])
    def test_expected_transitions_match_enumeration(self, rng, kind):
        from legal_sbd.crf import _pack, _posteriors, _unary_matrix

        for _ in range(8):
            if kind == "extreme":
                model = extreme_model(rng)
            else:
                model = random_model(rng, scale=2.0, integer=kind == "integer")
            batch = [
                random_features(rng, int(rng.integers(1, 6)), integer=kind == "integer")
                for _ in range(int(rng.integers(1, 4)))
            ]
            if kind == "extreme":
                batch = [[{**fv, "wide": 1.0} for fv in feats] for feats in batch]
            packing = _pack(np.array([len(feats) for feats in batch]))
            U = packed_unary([_unary_matrix(model, feats) for feats in batch], packing)
            _, _, e_trans = _posteriors(U, model.transitions, model.start, model.end, packing)
            want = sum(brute_transition_marginals(model, feats) for feats in batch)
            np.testing.assert_allclose(e_trans, want, atol=1e-10)


def extreme_model(rng):
    """Transitions of +-1e3 and, under the indicator "wide", unary spreads
    of 1,200 within a row put scaled values below the normal doubles.  The
    likely paths take -1e3 transitions, as 3 -> 4 scores +1e3 but its
    labels -1,200 each."""
    model = random_model(rng, n_indicators=3)
    model.transitions = np.full((5, 5), -1e3)
    model.transitions[3, 4] = 1e3
    model.state_weights = {**model.state_weights, "wide": np.array([0.0, 5.0, -3.0, -1200.0, -1200.0])}
    return model


def counted_calls(monkeypatch, names):
    """Count the calls of the ``crf`` functions *names* from here on."""
    from legal_sbd import crf

    calls = []
    for name in names:
        def counted(*args, _name=name, _fn=getattr(crf, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(crf, name, counted)
    return calls


def log_space_calls(monkeypatch):
    """Count the calls of the log-space recursions from here on."""
    return counted_calls(monkeypatch, ("_log_forward", "_log_backward"))


def single_pass_log_z(U, trans, start, end, packing):
    """(log Z as one forward and one backward pass give it, whether it came
    off the scaled passes): log z with z = a[last] @ b[last] and b from
    ``_backward``, or the log-space value where a, s or b leaves the normal
    doubles."""
    from legal_sbd.crf import _TINY, _backward, _forward, _log_forward, _logsumexp

    seq, last, n0 = packing.seq, packing.last, packing.batch_sizes[0]
    with np.errstate(all="ignore"):
        E, shift = _forward(U, trans, start, packing)
        _backward(E, end, packing)
        a, s, b = packing.a, packing.s, packing.b
        if a.min() >= _TINY and s.min() >= _TINY and b.min() >= _TINY:
            z = np.einsum("rk,rk->r", a[last], b[last])
            scales = np.bincount(seq, weights=np.log(s) + shift, minlength=n0)
            return np.log(z) + end.max() + scales, True
    return _logsumexp(_log_forward(U, trans, start, packing)[last] + end), False


def unary_model(U, trans, start, end):
    """(a model, plain feature maps) whose unary scores are U: position t
    holds the indicator "t<t>" alone, at 1.0, whose weight row is U[t]."""
    feats = [{f"t{t}": 1.0} for t in range(len(U))]
    return CrfModel({f"t{t}": row for t, row in enumerate(U)}, trans, start, end), feats


def log_z_cases(rng):
    """(U, trans, start, end, packing, whether the scaled passes give log Z,
    and for a single sequence the (model, feature maps) it scores, else
    None): random scaled batches, the 5,000-token sequence that underflows
    in log space, and single sequences whose end weights leave the doubles
    or whose weights are extreme, which fall back."""
    from legal_sbd.crf import _pack, _unary_matrix

    cases = []
    for _ in range(30):
        lengths = rng.integers(1, 40, size=int(rng.integers(1, 9)))
        scale = float(rng.uniform(0.2, 3.0))
        U = rng.normal(size=(int(lengths.sum()), 5)) * scale
        trans, start, end = (rng.normal(size=shape) * scale for shape in ((5, 5), 5, 5))
        single = unary_model(U, trans, start, end) if len(lengths) == 1 else None
        cases.append((U, trans, start, end, _pack(lengths), True, single))
    U = rng.normal(size=(5000, 5)) - 3.0  # underflows in log space, not scaled
    weights = (rng.normal(size=(5, 5)), rng.normal(size=5), rng.normal(size=5))
    cases.append((U, *weights, _pack(np.array([5000])), True, unary_model(U, *weights)))
    past_end = random_model(rng)
    past_end.end[1] = past_end.end.max() - 1000.0
    extreme = extreme_model(rng)
    for length in (1, 2, 4):
        for model, feats in (
            (past_end, random_features(rng, length)),
            (extreme, [{**fv, "wide": 1.0} for fv in random_features(rng, length, 3)]),
        ):
            U = _unary_matrix(model, feats)
            weights = (model.transitions, model.start, model.end)
            cases.append((U, *weights, _pack(np.array([length])), False, (model, feats)))
    return cases


class TestScaledRecursion:
    def test_value_alone_is_the_single_pass_log_z_bit_for_bit(self, rng):
        from legal_sbd.crf import _log_z

        for U, trans, start, end, packing, scaled, _ in log_z_cases(rng):
            want, on_scaled = single_pass_log_z(U, trans, start, end, packing)
            assert on_scaled == scaled
            got, _ = _log_z(U, trans, start, end, packing)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_log_partition_is_the_posteriors_log_z_from_the_forward_pass(self, rng, monkeypatch):
        # log_partition runs _log_z alone: the bits of _posteriors' log Z,
        # and on the scaled path one forward pass and no backward pass
        from legal_sbd.crf import _posteriors, _unary_matrix

        singles = [case for case in log_z_cases(rng) if case[-1] is not None]
        assert sum(case[5] for case in singles) >= 2 and not all(case[5] for case in singles)
        calls = counted_calls(monkeypatch, ("_forward", "_backward"))
        for U, trans, start, end, packing, scaled, (model, feats) in singles:
            assert np.array_equal(bits(_unary_matrix(model, feats)), bits(U))
            want = _posteriors(U, trans, start, end, packing)[0][0]
            calls.clear()
            got = log_partition(model, feats)
            assert np.array_equal(bits(np.float64(got)), bits(want))
            assert "_backward" not in calls
            if scaled:
                assert calls == ["_forward"]

    def test_matches_log_space_recursion(self, rng, monkeypatch):
        from legal_sbd.crf import _pack, _posteriors

        batches = [
            rng.integers(1, 40, size=int(rng.integers(1, 9))) for _ in range(30)
        ]
        batches += [np.ones(6, dtype=int), np.full(5, 17), np.array([1, 30, 1, 30, 1])]
        calls = log_space_calls(monkeypatch)
        for lengths in batches:
            scale = float(rng.uniform(0.2, 3.0))
            U = rng.normal(size=(int(lengths.sum()), 5)) * scale
            trans, start, end = (rng.normal(size=shape) * scale for shape in ((5, 5), 5, 5))
            packing = _pack(lengths)
            _posteriors(U, trans, start, end, packing)
            assert calls == []  # the scaled path, not its fallback
            assert_matches_log_space(U, trans, start, end, packing)
            calls.clear()

    def test_long_sequence_whose_probabilities_underflow(self, rng, monkeypatch):
        from legal_sbd.crf import _log_forward, _pack, _posteriors

        U = rng.normal(size=(5000, 5)) - 3.0
        trans, start, end = rng.normal(size=(5, 5)), rng.normal(size=5), rng.normal(size=5)
        packing = _pack(np.array([len(U)]))
        calls = log_space_calls(monkeypatch)
        _posteriors(U, trans, start, end, packing)
        assert calls == []
        # exp of the log values underflows to zero long before the end
        want_alpha = _log_forward(U, trans, start, packing)
        assert want_alpha.max(axis=1)[-1] < math.log(np.finfo(float).tiny)
        assert_matches_log_space(U, trans, start, end, packing)

    def test_training_stays_on_the_scaled_path(self, monkeypatch):
        # a fallback on every evaluation would train the same model, slowly
        from legal_sbd.pipeline import train_on_documents
        from legal_sbd.synthetic import make_corpus

        calls = log_space_calls(monkeypatch)
        train_on_documents(make_corpus(12, seed=101))
        assert calls == []

    def test_end_weights_past_the_doubles_fall_back_to_log_space(self, rng, monkeypatch):
        # the forward pass stays normal, but exp(end - max end) underflows
        # where the backward pass starts
        from legal_sbd.crf import _TINY, _forward, _pack, _posteriors, _unary_matrix

        model = random_model(rng)
        model.end[1] = model.end.max() - 1000.0
        calls = log_space_calls(monkeypatch)
        for length in (1, 2, 4):
            feats = random_features(rng, length)
            U = _unary_matrix(model, feats)
            packing = _pack(np.array([length]))
            _forward(U, model.transitions, model.start, packing)
            assert packing.a.min() >= _TINY and packing.s.min() >= _TINY
            log_z, m, e_trans = _posteriors(U, model.transitions, model.start, model.end, packing)
            assert {"_log_forward", "_log_backward"} <= set(calls)
            calls.clear()
            want = brute_log_partition(model, feats)
            assert abs(log_z[0] - want) <= 1e-10 * max(1.0, abs(want))
            np.testing.assert_allclose(m, brute_marginals(model, feats), atol=1e-10)
            np.testing.assert_allclose(
                e_trans, brute_transition_marginals(model, feats), atol=1e-10
            )

    def test_extreme_weights_fall_back_to_log_space(self, rng, monkeypatch):
        model = extreme_model(rng)
        calls = log_space_calls(monkeypatch)
        # no L2 term: at these weights it would be ~1e5, and its rounding
        # would swamp the finite differences
        config = TrainingConfig(c1=0.0, c2=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for length in (1, 2, 4):
                feats = [{**fv, "wide": 1.0} for fv in random_features(rng, length, 3)]
                got = log_partition(model, feats)
                want = brute_log_partition(model, feats)
                assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
                np.testing.assert_allclose(
                    marginals(model, feats), brute_marginals(model, feats), atol=1e-10
                )
            assert {"_log_forward", "_log_backward"} <= set(calls)
            batch = [
                LabeledSequence([{**fv, "wide": 1.0} for fv in seq.features], seq.labels)
                for seq in random_batch(rng)
            ]
            _, grad = nll_and_gradient(model, batch, config)
            fd_state, fd_arrays = finite_difference_gradient(model, batch, config)
        for ind, row in fd_state.items():
            err = np.abs(grad.state_weights[ind] - row) / np.maximum(1.0, np.abs(row))
            assert err.max() <= 1e-6
        for name in ("transitions", "start", "end"):
            got, want = getattr(grad, name), fd_arrays[name]
            assert (np.abs(got - want) / np.maximum(1.0, np.abs(want))).max() <= 1e-6


WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def train_acceptance_lengths() -> np.ndarray:
    """The sequence lengths of the benchmark's training workload at its
    default seed: 50 documents, one training sequence each."""
    from legal_sbd.pipeline import label_document

    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    name = workloads.TRAINING
    docs = workloads.workload_inputs(name, workloads.DEFAULT_SEEDS[name])["train"]
    return np.array([len(label_document(doc).labels) for doc in docs])


def bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.int64)


class TestStepPlan:
    """The buffers and per-step views that ``crf._pack`` builds once per
    batch must run the passes of the step loops they replaced
    (``oracles.loop_forward`` and ``loop_backward``) bit for bit."""

    def test_passes_match_the_step_loops_bit_for_bit(self, rng):
        from legal_sbd.crf import _backward, _forward, _pack

        cases = [  # (lengths, shift of U: -3 underflows a long sequence in log space)
            (np.full(6, 17), 0.0),
            (np.ones(7, dtype=int), 0.0),
            (np.array([1, 30, 1, 30, 1]), 0.0),
            (np.array([40]), 0.0),
            (np.array([1]), 0.0),
            (np.array([5000]), -3.0),
            (train_acceptance_lengths(), 0.0),
        ]
        cases += [(rng.integers(1, 40, size=int(rng.integers(1, 12))), 0.0) for _ in range(10)]
        for lengths, offset in cases:
            packing = _pack(lengths)
            # two evaluations on one packing: the second must not see the first
            for _ in range(2):
                scale = float(rng.uniform(0.2, 3.0))
                U = rng.normal(size=(int(lengths.sum()), 5)) * scale + offset
                trans, start, end = (rng.normal(size=shape) * scale for shape in ((5, 5), 5, 5))
                want = loop_forward(U, trans, start, packing)
                want_b = loop_backward(want[2], want[3], want[1], end, packing)
                E, shift = _forward(U, trans, start, packing)
                _backward(E, end, packing)
                got = (packing.a, packing.s, packing.P, E, shift, packing.b)
                for name, g, w in zip(("a", "s", "P", "E", "shift", "b"), got, (*want, want_b)):
                    assert np.array_equal(bits(g), bits(w)), (lengths.tolist()[:8], name)

    def test_a_gradient_raises_once_its_batch_is_evaluated_again(self, rng):
        from legal_sbd.crf import _batch_objective, _encode_sequences, _n_params, _to_model

        config = TrainingConfig()
        batch = random_batch(rng, max_sequences=4, max_length=6)
        vocab, encoded = _encode_sequences(batch)
        first, second = (rng.normal(size=_n_params(len(vocab))) * 0.5 for _ in range(2))
        _, first_gradient = _batch_objective(first, encoded, config.c2)
        value, second_gradient = _batch_objective(second, encoded, config.c2)
        with pytest.raises(RuntimeError, match="evaluated again"):
            first_gradient()
        want_value, want = nll_and_gradient(_to_model(second, vocab), batch, config)
        got = _to_model(second_gradient(), vocab)
        assert value == want_value
        assert list(got.state_weights) == list(want.state_weights)
        for name in ("transitions", "start", "end"):
            assert np.array_equal(bits(getattr(got, name)), bits(getattr(want, name)))
        assert np.array_equal(bits(got._state_matrix), bits(want._state_matrix))

    @pytest.mark.parametrize("subscripts", ["ri,ij->rj", "rj,ij->ri"])
    def test_compiled_einsum_gives_np_einsum_bits(self, rng, subscripts):
        # the step loops call the function np.einsum wraps; with numpy < 2
        # it comes from the fallback import
        for _ in range(300):
            rows = int(rng.integers(1, 80))
            x = np.exp(rng.normal(size=(rows + 3, 5)) * rng.uniform(0.1, 5.0))[2 : rows + 2]
            E = np.exp(rng.normal(size=(5, 5)) * rng.uniform(0.1, 5.0))
            got = np.empty((rows + 1, 5))[1:]
            crf.c_einsum(subscripts, x, E, out=got)
            want = np.einsum(subscripts, x, E)
            assert np.array_equal(bits(got), bits(want))
            assert np.array_equal(bits(crf.c_einsum(subscripts, x, E)), bits(want))


class TestNonFiniteAbort:
    def test_non_finite_objective_names_sequence(self):
        model = zero_model()
        model.state_weights = {**model.state_weights, "bias": np.full(5, np.inf)}
        batch = [LabeledSequence([{"bias": 1.0}], ["U"])]
        from legal_sbd.errors import TrainingError

        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingError, match="sequence 0"):
                nll_and_gradient(model, batch, TrainingConfig(c1=0.0, c2=0.0))

    def test_names_the_callers_index_in_a_permuted_batch(self):
        # sequence 2 is the longest, so it is packed first; the error must
        # still name it by its position in the caller's batch
        model = zero_model()
        model.state_weights = {**model.state_weights, "bias": np.zeros(5), "boom": np.full(5, np.inf)}
        plain = {"bias": 1.0}
        batch = [
            LabeledSequence([plain, plain], ["B", "L"]),
            LabeledSequence([plain, plain, plain], ["B", "I", "L"]),
            LabeledSequence([plain, {"boom": 1.0}, plain, plain], ["B", "I", "I", "L"]),
        ]
        from legal_sbd.errors import TrainingError

        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingError, match=r"sequence 2\b"):
                nll_and_gradient(model, batch, TrainingConfig(c1=0.0, c2=0.0))


class TestTrainedOptimality:
    def test_kkt_conditions_at_the_optimum(self):
        # at the elastic-net optimum: g_i = -c1*sign(w_i) wherever w_i != 0,
        # and |g_i| <= c1 wherever w_i == 0 (g = smooth gradient incl. L2);
        # checks gradient and optimizer against each other independently
        batch = tiny_training_batch()
        config = TrainingConfig(
            c1=0.7, c2=0.01, max_iterations=2000, convergence_tol=1e-15
        )
        model = train(batch, config)
        _, grad = nll_and_gradient(model, batch, config)

        def check(weights, gradient):
            for w, g in zip(np.ravel(weights), np.ravel(gradient)):
                if w != 0:
                    assert abs(g + config.c1 * np.sign(w)) < 1e-5
                else:
                    assert abs(g) <= config.c1 + 1e-5

        for ind, g in grad.state_weights.items():
            check(model.state_weights.get(ind, np.zeros(5)), g)
        check(model.transitions, grad.transitions)
        check(model.start, grad.start)
        check(model.end, grad.end)

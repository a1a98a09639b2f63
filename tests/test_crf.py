import json
import math

import numpy as np
import pytest

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
    brute_viterbi,
    finite_difference_gradient,
    random_batch,
    random_features,
    random_model,
    term_by_term_score,
)


def zero_model(n_indicators=0):
    return CrfModel(
        labels=tuple(LABELS),
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
        model.state_weights["bias"] = np.zeros(5)
        model.state_weights["bias"][LABELS.index("U")] = 2.0
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
        model.state_weights["known"] = np.ones(5)
        got = score(model, [{"known": 1.0, "unknown": 9.0}], ["B"])
        assert got == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            score(zero_model(), [{"bias": 1.0}], ["B", "L"])


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
        shifted.state_weights["position_marker"] = np.full(5, 2.5)
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
        model.state_weights["bias"] = np.zeros(5)
        batch = [LabeledSequence([{"bias": 1.0}], ["U"])]
        value, grad = nll_and_gradient(model, batch, TrainingConfig(c1=0.0, c2=0.0))
        assert value == pytest.approx(math.log(5))
        want = np.full(5, 0.2)
        want[LABELS.index("U")] -= 1.0
        np.testing.assert_allclose(grad.state["bias"], want, atol=1e-12)
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
                err = np.abs(grad.state[ind] - row) / np.maximum(1.0, np.abs(row))
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

    def test_invalid_config_rejected(self):
        with pytest.raises(DataError):
            train(tiny_training_batch(), TrainingConfig(c1=-1.0))
        with pytest.raises(DataError):
            train(tiny_training_batch(), TrainingConfig(max_iterations=0))


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
        assert loaded.labels == small_model.labels
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

    def test_identical_viterbi_after_round_trip(self, small_model, tmp_path, rng):
        from legal_sbd.pipeline import predict_document
        from legal_sbd.synthetic import make_corpus

        path = tmp_path / "model.json"
        save_model(small_model, path)
        loaded = load_model(path)
        for doc in make_corpus(5, seed=400, id_prefix="heldout"):
            assert predict_document(loaded, doc) == predict_document(small_model, doc)

    def test_unknown_version_rejected(self, small_model, tmp_path):
        path = tmp_path / "model.json"
        save_model(small_model, path)
        hacked = path.read_text().replace('"version": 1', '"version": 99', 1)
        path.write_text(hacked)
        with pytest.raises(DataError, match="version"):
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

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        for text in ("{not json", "[1, 2]"):
            path.write_text(text)
            with pytest.raises(DataError, match="corrupt"):
                load_model(path)


class TestForwardBackwardAgreement:
    def test_alpha_beta_consistent_at_every_position(self, rng):
        # logsumexp over labels of alpha_t + beta_t must equal the log
        # partition at every t
        from legal_sbd.crf import _backward, _forward, _logsumexp, _unary_matrix

        for _ in range(20):
            model = random_model(rng, scale=float(rng.uniform(0.5, 2.5)))
            feats = random_features(rng, int(rng.integers(1, 60)))
            unary = _unary_matrix(model, feats)
            single = [1] * len(feats)
            alpha = _forward(unary, model.transitions, model.start, single)
            beta = _backward(unary, model.transitions, model.end, single)
            log_z = log_partition(model, feats)
            for t in range(len(feats)):
                drift = abs(_logsumexp(alpha[t] + beta[t]) - log_z)
                assert drift <= 1e-9

    def test_packed_rows_match_single_sequences(self, rng):
        # sorted longest first (stably), step t holds the sequences longer
        # than t, and each sequence's rows see only its own predecessors
        from legal_sbd.crf import _backward, _forward, _pack, _unary_matrix

        model = random_model(rng, scale=1.5)
        lengths = np.array([4, 9, 1, 9, 6])
        unaries = [_unary_matrix(model, random_features(rng, n)) for n in lengths]
        packing = _pack(lengths)
        assert packing.batch_sizes == [5, 4, 4, 4, 3, 3, 2, 2, 2]
        assert packing.seq[:5].tolist() == [1, 3, 4, 0, 2]
        U = np.array([unaries[s][t] for s, t in zip(packing.seq, packing.step)])
        alpha = _forward(U, model.transitions, model.start, packing.batch_sizes)
        beta = _backward(U, model.transitions, model.end, packing.batch_sizes)
        for s, unary in enumerate(unaries):
            rows = np.flatnonzero(packing.seq == s)
            assert packing.step[rows].tolist() == list(range(len(unary)))
            assert packing.last[s] == rows[-1]
            single = [1] * len(unary)
            np.testing.assert_allclose(
                alpha[rows], _forward(unary, model.transitions, model.start, single),
                rtol=1e-12,
            )
            np.testing.assert_allclose(
                beta[rows], _backward(unary, model.transitions, model.end, single),
                rtol=1e-12,
            )


class TestNonFiniteAbort:
    def test_non_finite_objective_names_sequence(self):
        model = zero_model()
        model.state_weights["bias"] = np.full(5, np.inf)
        batch = [LabeledSequence([{"bias": 1.0}], ["U"])]
        from legal_sbd.errors import TrainingError

        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingError, match="sequence 0"):
                nll_and_gradient(model, batch, TrainingConfig(c1=0.0, c2=0.0))

    def test_names_the_callers_index_in_a_permuted_batch(self):
        # sequence 2 is the longest, so it is packed first; the error must
        # still name it by its position in the caller's batch
        model = zero_model()
        model.state_weights["bias"] = np.zeros(5)
        model.state_weights["boom"] = np.full(5, np.inf)
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

        for ind, g in grad.state.items():
            check(model.state_weights.get(ind, np.zeros(5)), g)
        check(model.transitions, grad.transitions)
        check(model.start, grad.start)
        check(model.end, grad.end)

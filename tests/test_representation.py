"""Architecture wiring, training behavior, and Q-matrix extraction."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogrl.errors import ConfigurationError, DimensionError, InputError
from cogrl.ingest import VisualSynthSpec, synth_visual
from cogrl.neuralcore import SGDConfig
from cogrl.problems import ProblemInstance, split_blank
from cogrl.representation import (
    CharVocab,
    ClozeArchSpec,
    ImageArchSpec,
    RepresentationMatrix,
    build_cloze_lstm,
    build_image_cnn,
    extract_representations,
    load_network,
    read_representations,
    save_network,
    threshold_qmatrix,
    train_model,
    training_accuracy,
    write_representations,
)
from test_neuralcore import lstm_step_full_reference


class TestBuildImageCNN:
    def test_stated_75x100_shapes(self):
        spec = ImageArchSpec(in_shape=(3, 75, 100), n_classes=2)
        net = build_image_cnn(spec, seed=0)
        assert net.conv_out_shape == (10, 14, 19)
        assert net.flat_size == 2660
        assert net.rep.out_size == 50
        assert net.out.out_size == 2

    def test_stated_16x16_shapes(self):
        spec = ImageArchSpec(in_shape=(1, 16, 16), n_classes=2,
                             kernel=4, stride=2)
        net = build_image_cnn(spec, seed=0)
        assert net.conv_out_shape == (10, 7, 7)

    def test_kernel_covering_whole_image(self):
        spec = ImageArchSpec(in_shape=(1, 4, 4), n_classes=2, filters=1,
                             kernel=4, stride=1, rep_size=5)
        net = build_image_cnn(spec, seed=0)
        assert net.conv_out_shape == (1, 1, 1)

    def test_kernel_larger_than_image_rejected(self):
        spec = ImageArchSpec(in_shape=(1, 8, 8), n_classes=2, kernel=10)
        with pytest.raises(DimensionError):
            build_image_cnn(spec, seed=0)

    @pytest.mark.parametrize("in_shape", [(1, 8), (1, 8, 8, 1), 8,
                                          (1, 8.0, 8), (1, True, 8)])
    def test_in_shape_must_be_three_integers(self, in_shape):
        with pytest.raises(ConfigurationError, match="in_shape"):
            ImageArchSpec(in_shape=in_shape, n_classes=2)

    def test_in_shape_is_normalized_to_a_tuple(self):
        spec = ImageArchSpec(in_shape=[1, 8, 8], n_classes=2, kernel=3)
        assert spec.in_shape == (1, 8, 8)
        assert build_image_cnn(spec).forward_logits(
            np.zeros((1, 1, 8, 8)))[0].shape == (1, 2)

    @pytest.mark.parametrize("field,value", [
        ("n_classes", 2.5), ("n_classes", 1), ("kernel", "3"),
        ("filters", 0), ("stride", 2.0), ("rep_size", None)])
    def test_sizes_must_be_integers_in_range(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ImageArchSpec(**{"in_shape": (1, 8, 8), "n_classes": 2,
                             field: value})

    def test_representation_gets_the_training_checks(self):
        from cogrl.errors import NumericError

        spec = ImageArchSpec(in_shape=(1, 6, 6), n_classes=2, filters=2,
                             kernel=3, stride=1, rep_size=4)
        net = build_image_cnn(spec, seed=0)
        # a wrong image size, and one image not collated into a minibatch
        for images in (np.zeros((1, 1, 7, 7)), np.zeros((1, 6, 6))):
            for entry in (net.representation, net.forward_logits):
                with pytest.raises(DimensionError, match="minibatch"):
                    entry(images)
        net.rep.weights[0, 0] = np.nan
        with pytest.raises(NumericError, match="rep"):
            net.representation(np.ones((1, 1, 6, 6)))

    def test_parameter_count_reported(self):
        spec = ImageArchSpec(in_shape=(1, 8, 8), n_classes=2, filters=2,
                             kernel=3, stride=2, rep_size=4)
        net = build_image_cnn(spec, seed=0)
        # conv 2*1*9 + gains 2, rep (2*3*3)->4 + 4, out 4*2 + 2
        assert net.parameter_count() == 18 + 2 + 18 * 4 + 4 + 8 + 2


class TestBuildClozeLSTM:
    def _tiny(self, n_classes=3):
        vocab = CharVocab("abcdefgh _.")
        spec = ClozeArchSpec(n_classes=n_classes, embedding_dim=3,
                             lstm_hidden=4, combine_size=8, rep_size=5)
        return build_cloze_lstm(spec, vocab, seed=1), vocab

    def test_three_answer_classes_three_logits(self):
        net, _ = self._tiny(3)
        logits, _ = net.forward_logits(
            net.collate([split_blank("___ apple is red")]))
        assert logits.shape == (1, 3)

    def test_blank_at_start_uses_zero_forward_state(self):
        net, _ = self._tiny()
        content = split_blank("___ abc")
        (ids, mask), _ = net.collate([content])
        h_f, _, caches = net.fwd.run(net.embed.forward(ids), mask)
        assert np.array_equal(h_f, np.zeros((1, 4))) and caches == []
        logits, _ = net.forward_logits(net.collate([content]))
        assert np.all(np.isfinite(logits))

    def test_matches_manual_unroll_oracle(self):
        net, vocab = self._tiny()
        content = split_blank("abc ___ hged")
        pre = vocab.encode("abc ")
        post = vocab.encode(" hged")[::-1]
        # the reference step is written apart from LSTMCell's gate routine
        h_f = np.zeros(4)
        c_f = np.zeros(4)
        for t in pre:
            h_f, c_f, _ = lstm_step_full_reference(
                net.fwd, net.embed.vectors[t], h_f, c_f)
        h_b = np.zeros(4)
        c_b = np.zeros(4)
        for t in post:
            h_b, c_b, _ = lstm_step_full_reference(
                net.bwd, net.embed.vectors[t], h_b, c_b)
        comb, _ = net.combine.forward(np.concatenate([h_f, h_b])[None])
        rep, _ = net.rep.forward(comb)
        expected, _ = net.out.forward(rep)
        logits, _ = net.forward_logits(net.collate([content]))
        assert np.allclose(logits, expected, atol=1e-12)

    def test_non_cloze_content_rejected(self):
        net, _ = self._tiny()
        # one ClozeContent is not a minibatch either: collate makes one
        for content in (np.zeros(3), "abc ___ d", split_blank("a ___ b")):
            for entry in (net.forward_logits, net.representation):
                with pytest.raises(DimensionError, match="minibatch"):
                    entry(content)
        with pytest.raises(DimensionError):
            net.batch_loss_and_grads([(split_blank("a ___"), 0), (np.zeros(3), 1)])

    def test_empty_vocab_rejected(self):
        with pytest.raises(ConfigurationError):
            CharVocab("")

    def test_combine_size_must_be_twice_hidden(self):
        with pytest.raises(ConfigurationError):
            ClozeArchSpec(n_classes=2, lstm_hidden=8, combine_size=32)

    def test_unknown_characters_map_to_reserved_id(self):
        _, vocab = self._tiny()
        ids = vocab.encode("zzz")
        assert np.array_equal(ids, [0, 0, 0])


class TestNumericGuards:
    def test_non_finite_conv_identifies_layer(self):
        from cogrl.errors import NumericError

        spec = ImageArchSpec(in_shape=(1, 6, 6), n_classes=2, filters=2,
                             kernel=3, stride=1, rep_size=4)
        net = build_image_cnn(spec, seed=0)
        net.conv.gains[0] = np.inf
        with pytest.raises(NumericError, match="conv"):
            net.loss_and_probs(np.ones((1, 6, 6)), 0)

    def test_non_finite_output_identifies_layer(self):
        from cogrl.errors import NumericError

        spec = ImageArchSpec(in_shape=(1, 6, 6), n_classes=2, filters=2,
                             kernel=3, stride=1, rep_size=4)
        net = build_image_cnn(spec, seed=0)
        net.out.weights[0, 0] = np.nan
        with pytest.raises(NumericError, match="out"):
            net.loss_and_probs(np.ones((1, 6, 6)), 0)


def _separable_problems(n_per_class=4, size=8, seed=0):
    """Two classes: bright block top-left vs bottom-right."""
    rng = np.random.default_rng(seed)
    problems = []
    for c in range(2):
        for j in range(n_per_class):
            img = rng.uniform(0.0, 0.1, (1, size, size))
            if c == 0:
                img[0, :3, :3] = 1.0
            else:
                img[0, -3:, -3:] = 1.0
            problems.append(ProblemInstance(
                item_id=f"p{c}{j}", content=img, answer=c))
    return problems


class TestTrainModel:
    def _net(self, seed=0):
        spec = ImageArchSpec(in_shape=(1, 8, 8), n_classes=2, filters=3,
                             kernel=3, stride=2, rep_size=6)
        return build_image_cnn(spec, seed=seed)

    def test_linearly_separable_reaches_full_accuracy(self):
        problems = _separable_problems()
        net = self._net()
        history = train_model(net, problems, SGDConfig(seed=0, max_epochs=500))
        assert training_accuracy(net, problems) == 1.0
        assert history[-1] <= history[0]

    def test_single_class_rejected(self):
        problems = [p for p in _separable_problems() if p.answer == 0]
        with pytest.raises(InputError):
            train_model(self._net(), problems, SGDConfig())

    def test_fewer_than_two_problems_rejected(self):
        with pytest.raises(InputError):
            train_model(self._net(), _separable_problems()[:1], SGDConfig())

    def test_same_seed_identical_history(self):
        problems = _separable_problems()
        h1 = train_model(self._net(seed=3), problems,
                         SGDConfig(seed=5, max_epochs=30, target_loss=0.0))
        h2 = train_model(self._net(seed=3), problems,
                         SGDConfig(seed=5, max_epochs=30, target_loss=0.0))
        assert h1 == h2

    def test_different_seed_different_history(self):
        problems = _separable_problems()
        h1 = train_model(self._net(seed=3), problems,
                         SGDConfig(seed=5, max_epochs=10, target_loss=0.0))
        h2 = train_model(self._net(seed=4), problems,
                         SGDConfig(seed=5, max_epochs=10, target_loss=0.0))
        assert h1 != h2


class TestExtractRepresentations:
    def _trained(self):
        problems = _separable_problems()
        spec = ImageArchSpec(in_shape=(1, 8, 8), n_classes=2, filters=3,
                             kernel=3, stride=2, rep_size=6)
        net = build_image_cnn(spec, seed=0)
        train_model(net, problems, SGDConfig(seed=0, max_epochs=100))
        return net, problems

    def test_rows_in_open_unit_interval(self):
        net, problems = self._trained()
        reps = extract_representations(net, problems)
        assert reps.values.shape == (len(problems), 6)
        assert np.all((reps.values > 0) & (reps.values < 1))

    def test_duplicate_problems_identical_rows(self):
        net, problems = self._trained()
        dup = [problems[0],
               ProblemInstance("copy", problems[0].content, problems[0].answer)]
        reps = extract_representations(net, dup)
        assert np.array_equal(reps.values[0], reps.values[1])

    def test_network_without_pre_output_rejected(self):
        class Bare:
            pass

        with pytest.raises(ConfigurationError):
            extract_representations(Bare(), [])

    def test_tsv_round_trip_exact(self, tmp_path):
        net, problems = self._trained()
        reps = extract_representations(net, problems)
        path = tmp_path / "reps.tsv"
        write_representations(path, reps)
        back = read_representations(path)
        assert back.item_ids == reps.item_ids
        assert np.array_equal(back.values, reps.values)

    def test_within_template_rows_closer_than_across(self):
        bundle = synth_visual(VisualSynthSpec(
            templates=4, images_per_template=5, image_shape=(1, 16, 16),
            jitter=1, seed=11))
        spec = ImageArchSpec(in_shape=(1, 16, 16), n_classes=2, filters=6,
                             kernel=4, stride=2, rep_size=12)
        net = build_image_cnn(spec, seed=11)
        train_model(net, bundle.problems,
                    SGDConfig(learning_rate=0.5, seed=11, max_epochs=300,
                              target_loss=1e-3))
        reps = extract_representations(net, bundle.problems)
        template_of = bundle.extras["template_of"]
        row = {item: reps.values[i] for i, item in enumerate(reps.item_ids)}
        within, across = [], []
        items = reps.item_ids
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                d = np.linalg.norm(row[items[i]] - row[items[j]])
                same = template_of[items[i]] == template_of[items[j]]
                (within if same else across).append(d)
        assert np.mean(within) < np.mean(across)


class TestThresholdQMatrix:
    def test_direct_comparison_row(self):
        reps = RepresentationMatrix(
            ["a", "b"], np.array([[0.99, 0.30, 0.96], [0.30, 0.99, 0.96]]))
        q, report = threshold_qmatrix(reps, 0.95)
        assert q.kc_names == ["rep_00", "rep_01", "rep_02"]
        assert q.cells.tolist() == [[1, 0, 1], [0, 1, 1]]
        assert not report.changed

    def test_single_row_duplicate_columns_merge(self):
        reps = RepresentationMatrix(["a"], np.array([[0.99, 0.30, 0.96]]))
        q, report = threshold_qmatrix(reps, 0.95)
        assert q.kc_names == ["rep_00+rep_02"]
        assert report.merged_columns == [("rep_00+rep_02",
                                          ["rep_00", "rep_02"])]

    def test_all_below_threshold_gets_residual(self):
        reps = RepresentationMatrix(
            ["a", "b"], np.array([[0.5, 0.2], [0.99, 0.1]]))
        q, report = threshold_qmatrix(reps, 0.95)
        assert "residual" in q.kc_names
        assert report.residual_items == ["a"]
        assert q.row("a").sum() == 1

    def test_bad_tau_rejected(self):
        reps = RepresentationMatrix(["a"], np.array([[0.5]]))
        for tau in (0.0, 1.0, -0.3, 2.0):
            with pytest.raises(ConfigurationError):
                threshold_qmatrix(reps, tau)

    @settings(deadline=None, max_examples=50)
    @given(seed=st.integers(0, 10_000))
    def test_raising_tau_never_adds_ones(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.01, 0.99, size=(4, 5))
        reps = RepresentationMatrix([f"i{k}" for k in range(4)], values)
        lo = (values > 0.90).astype(int)
        hi = (values > 0.95).astype(int)
        assert np.all(hi <= lo)


class TestPipelineDeterminism:
    def test_same_inputs_same_qmatrix(self):
        bundle = synth_visual(VisualSynthSpec(
            templates=2, images_per_template=4, image_shape=(1, 12, 12),
            jitter=1, seed=3))
        spec = ImageArchSpec(in_shape=(1, 12, 12), n_classes=2, filters=3,
                             kernel=3, stride=2, rep_size=8)

        def pipeline():
            net = build_image_cnn(spec, seed=2)
            train_model(net, bundle.problems,
                        SGDConfig(seed=2, max_epochs=60, target_loss=0.0))
            reps = extract_representations(net, bundle.problems)
            q, _ = threshold_qmatrix(reps, 0.95)
            return q

        q1, q2 = pipeline(), pipeline()
        assert q1.item_ids == q2.item_ids
        assert q1.kc_names == q2.kc_names
        assert np.array_equal(q1.cells, q2.cells)


class TestNetworkCheckpoint:
    HEAD = ["rep.weights", "rep.biases", "out.weights", "out.biases"]
    CELL = ["w_x", "w_h", "b_x", "b_h"]

    @pytest.mark.parametrize("arch", ["cnn", "lstm"])
    def test_parameter_and_gradient_order_is_body_then_head(self, arch):
        # the checkpoint writes its records in this order
        if arch == "cnn":
            net = build_image_cnn(ImageArchSpec(
                in_shape=(1, 6, 6), n_classes=2, filters=2, kernel=3,
                stride=1, rep_size=4))
            sample = (np.zeros((1, 6, 6)), 1)
            body = ["conv.kernels", "conv.gains"]
        else:
            net = build_cloze_lstm(ClozeArchSpec(
                n_classes=2, embedding_dim=3, lstm_hidden=4, combine_size=8,
                rep_size=5), CharVocab("abc "))
            sample = (split_blank("ab ___ c"), 1)
            body = (["embed.vectors"] + [f"fwd.{k}" for k in self.CELL]
                    + [f"bwd.{k}" for k in self.CELL]
                    + ["combine.weights", "combine.biases"])
        assert list(net.parameters()) == body + self.HEAD
        _, grads = net.batch_loss_and_grads([sample])
        assert list(grads) == body + self.HEAD

    def test_cnn_round_trip_preserves_outputs(self, tmp_path):
        problems = _separable_problems()
        spec = ImageArchSpec(in_shape=(1, 8, 8), n_classes=2, filters=3,
                             kernel=3, stride=2, rep_size=6)
        net = build_image_cnn(spec, seed=0)
        train_model(net, problems, SGDConfig(seed=0, max_epochs=20,
                                             target_loss=0.0))
        path = tmp_path / "cnn.ckpt"
        save_network(path, net)
        restored = load_network(path)
        for p in problems:
            assert np.array_equal(net.representation(p.content[None]),
                                  restored.representation(p.content[None]))

    def test_lstm_round_trip_preserves_outputs(self, tmp_path):
        vocab = CharVocab("abco _")
        spec = ClozeArchSpec(n_classes=2, embedding_dim=3, lstm_hidden=4,
                             combine_size=8, rep_size=5)
        net = build_cloze_lstm(spec, vocab, seed=4)
        path = tmp_path / "lstm.ckpt"
        save_network(path, net)
        restored = load_network(path)
        content = split_blank("abc ___ oc ba")
        batch = net.collate([content])
        assert np.array_equal(net.representation(batch),
                              restored.representation(batch))
        assert restored.vocab.chars == vocab.chars

    def test_meta_is_the_architecture_and_its_spec(self):
        cnn = build_image_cnn(ImageArchSpec(
            in_shape=(1, 8, 8), n_classes=2, filters=3, kernel=3, stride=2,
            rep_size=6))
        assert json.dumps(cnn.meta(), sort_keys=True) == json.dumps({
            "architecture": "image_cnn", "in_shape": [1, 8, 8],
            "n_classes": 2, "filters": 3, "kernel": 3, "stride": 2,
            "rep_size": 6}, sort_keys=True)
        lstm = build_cloze_lstm(ClozeArchSpec(
            n_classes=2, embedding_dim=3, lstm_hidden=4, combine_size=8,
            rep_size=5), CharVocab("cab _"))
        assert json.dumps(lstm.meta(), sort_keys=True) == json.dumps({
            "architecture": "cloze_lstm", "n_classes": 2, "embedding_dim": 3,
            "lstm_hidden": 4, "combine_size": 8, "rep_size": 5,
            "vocab_chars": " _abc"}, sort_keys=True)

    @pytest.mark.parametrize("arch,field,value", [
        ("cnn", "stride", None),            # missing
        ("cnn", "kernel", "3"),             # string size
        ("cnn", "n_classes", 2.5),          # float size
        ("cnn", "in_shape", [8, 8]),        # 2-element in_shape
        ("cnn", "in_shape", "188"),
        ("cnn", "kernel", 9),               # larger than the 8x8 image
        ("cnn", "dropout", 0.5),            # unknown field
        ("cnn", "architecture", None),
        ("lstm", "lstm_hidden", None),
        ("lstm", "combine_size", 9),
        ("lstm", "rep_size", [5]),
        ("lstm", "vocab_chars", 7),         # non-string vocab_chars
        ("lstm", "vocab_chars", ["a", "b"]),
        ("lstm", "vocab_chars", None),
        ("lstm", "vocab_chars", ""),
    ])
    def test_malformed_meta_is_an_input_error(self, tmp_path, arch, field,
                                              value):
        if arch == "cnn":
            net = build_image_cnn(ImageArchSpec(
                in_shape=(1, 8, 8), n_classes=2, filters=3, kernel=3,
                stride=2, rep_size=6))
        else:
            net = build_cloze_lstm(ClozeArchSpec(
                n_classes=2, embedding_dim=3, lstm_hidden=4, combine_size=8,
                rep_size=5), CharVocab("abc _"))
        path = tmp_path / "net.ckpt"
        save_network(path, net)
        lines = path.read_text().split("\n")
        meta = json.loads(lines[1][len("meta "):])
        if value is None:
            del meta[field]
        else:
            meta[field] = value
        lines[1] = "meta " + json.dumps(meta)
        path.write_text("\n".join(lines))
        with pytest.raises(InputError, match="net.ckpt"):
            load_network(path)

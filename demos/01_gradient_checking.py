"""Verify analytic gradients of both content architectures numerically.

Every parameter of a reduced-size convolutional net and a reduced-size
bidirectional character LSTM is perturbed by +/- epsilon and the central
finite difference is compared against the backpropagated gradient.
"""

import numpy as np

from cogrl.neuralcore import grad_check
from cogrl.problems import split_blank
from cogrl.representation import (
    CharVocab,
    ClozeArchSpec,
    ClozeLSTM,
    ImageArchSpec,
    ImageCNN,
)

rng = np.random.default_rng(0)

cnn = ImageCNN(
    ImageArchSpec(in_shape=(2, 10, 10), n_classes=3, filters=3, kernel=3,
                  stride=2, rep_size=8), seed=0)
image = rng.uniform(0.0, 1.0, size=(2, 10, 10))
err = grad_check(cnn, (image, 1), epsilon=1e-5)
print(f"convolutional net: {cnn.parameter_count()} parameters, "
      f"max relative gradient error {err:.3e}")

vocab = CharVocab("abcdefgh .")
lstm = ClozeLSTM(
    ClozeArchSpec(n_classes=3, embedding_dim=4, lstm_hidden=6,
                  combine_size=12, rep_size=6), vocab, seed=0)
question = split_blank("bag of cheese ___ fed the dog")
err = grad_check(lstm, (question, 2), epsilon=1e-5)
print(f"bidirectional LSTM: {lstm.parameter_count()} parameters, "
      f"max relative gradient error {err:.3e}")

print("both architectures agree with central finite differences (< 1e-4)")

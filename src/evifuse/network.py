"""Per-view evidence classifier: a small MLP with exact reverse-mode gradients.

Hidden layers use the rectifier; the output head applies softplus so the
network emits nonnegative per-class evidence for each (rows, features)
input row. Forward passes can cache activations for a backward call, which
accepts an upstream gradient on the evidence (or on the raw logits, for
cross-entropy baselines). One adaptive-moment update with bias correction
and decoupled weight decay steps the arrays of all heads (Kingma & Ba, 2015).
"""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPS, WEIGHT_DECAY = 0.9, 0.999, 1e-8, 1e-5


def softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def sigmoid(z: np.ndarray) -> np.ndarray:
    # 1/(1 + e^-z) for z >= 0, e^z/(1 + e^z) below: exp never overflows
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class EvidenceNetwork:
    """Feedforward net [d_in, hidden..., K] with a softplus evidence head."""

    def __init__(self, layer_sizes, seed: int = 0):
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = [int(s) for s in layer_sizes]
        rng = np.random.default_rng(seed)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def params(self) -> list:
        """Flat parameter list [W0, b0, W1, b1, ...]; arrays are live views."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def set_params(self, params) -> None:
        for i, (w, b) in enumerate(zip(params[0::2], params[1::2])):
            self.weights[i] = np.asarray(w, dtype=np.float64)
            self.biases[i] = np.asarray(b, dtype=np.float64)

    def _forward_linear(self, x: np.ndarray):
        """Runs all layers, rectifying between them; returns final logits + cache."""
        h = np.asarray(x, dtype=np.float64)
        if h.ndim != 2 or h.shape[1] != self.input_dim:
            raise ValueError(
                f"input of shape {h.shape}, network expects (rows, {self.input_dim})"
            )
        hiddens = [h]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
            hiddens.append(h)
        logits = h @ self.weights[-1]
        logits += self.biases[-1]
        return logits, {"hiddens": hiddens, "logits": logits}

    def forward_logits(self, x: np.ndarray, return_cache: bool = False):
        logits, cache = self._forward_linear(x)
        return (logits, cache) if return_cache else logits

    def forward(self, x: np.ndarray, return_cache: bool = False):
        """Evidence rows for input rows; always elementwise >= 0."""
        logits, cache = self._forward_linear(x)
        evidence = softplus(logits)
        return (evidence, cache) if return_cache else evidence

    def backward_logits(self, cache: dict, delta: np.ndarray) -> list:
        """Parameter gradients given an upstream gradient ``delta`` on the logits."""
        hiddens = cache["hiddens"]
        grads = [None] * (2 * len(self.weights))
        for layer in range(len(self.weights) - 1, -1, -1):
            h = hiddens[layer]
            grads[2 * layer] = h.T @ delta
            grads[2 * layer + 1] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (h > 0.0)
        return grads

    def backward(self, cache: dict, grad_evidence: np.ndarray) -> list:
        """Parameter gradients given an upstream gradient on the evidence."""
        grad_logits = grad_evidence * sigmoid(cache["logits"])
        return self.backward_logits(cache, grad_logits)


class Adam:
    """Adaptive-moment optimizer with decoupled weight decay over the arrays it was built on."""

    def __init__(self, params, learning_rate: float = 1e-3):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in self.params]
        self.v = [np.zeros_like(p) for p in self.params]

    def step(self, grads) -> None:
        """Update the params in place; a non-finite gradient raises, naming its
        layer by (weight, bias) pairs counted through all the arrays in order."""
        if len(grads) != len(self.params):
            raise ValueError("grads length does not match optimizer state")
        for i, g in enumerate(grads):
            if not np.all(np.isfinite(g)):
                kind = "weights" if i % 2 == 0 else "biases"
                raise FloatingPointError(
                    f"non-finite gradient at layer {i // 2} {kind}"
                )
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPS)
            p -= self.learning_rate * WEIGHT_DECAY * p

"""Per-view evidence classifier: a small MLP with exact reverse-mode gradients.

Hidden layers use the rectifier; the output head applies softplus so the
network emits a nonnegative per-class evidence vector. Forward passes can
cache activations for a subsequent backward call, which accepts an
arbitrary upstream gradient on the evidence (or on the raw logits, for
cross-entropy baselines). Optimization is an adaptive-moment update with
bias correction and decoupled weight decay.
"""

from __future__ import annotations

import numpy as np


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
        single = x.ndim == 1
        h = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if h.shape[1] != self.input_dim:
            raise ValueError(
                f"input has {h.shape[1]} features, network expects {self.input_dim}"
            )
        hiddens = [h]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
            hiddens.append(h)
        logits = h @ self.weights[-1]
        logits += self.biases[-1]
        return logits, {"hiddens": hiddens, "logits": logits, "single": single}

    def forward_logits(self, x: np.ndarray, return_cache: bool = False):
        logits, cache = self._forward_linear(x)
        out = logits[0] if cache["single"] else logits
        return (out, cache) if return_cache else out

    def forward(self, x: np.ndarray, return_cache: bool = False):
        """Evidence vector(s) for input row(s); always elementwise >= 0."""
        logits, cache = self._forward_linear(x)
        evidence = softplus(logits)
        out = evidence[0] if cache["single"] else evidence
        return (out, cache) if return_cache else out

    def backward_logits(self, cache: dict, grad_logits: np.ndarray) -> list:
        """Parameter gradients given an upstream gradient on the logits."""
        delta = np.atleast_2d(grad_logits)
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
        grad_logits = np.atleast_2d(grad_evidence) * sigmoid(cache["logits"])
        return self.backward_logits(cache, grad_logits)


class Adam:
    """Adaptive-moment optimizer with bias correction and decoupled weight decay."""

    def __init__(self, params, learning_rate: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 1e-5):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads) -> None:
        """Update params in place from grads; raises on non-finite gradients."""
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("params/grads length does not match optimizer state")
        for i, g in enumerate(grads):
            if not np.all(np.isfinite(g)):
                kind = "weights" if i % 2 == 0 else "biases"
                raise FloatingPointError(
                    f"non-finite gradient at layer {i // 2} {kind}"
                )
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                p -= self.learning_rate * self.weight_decay * p

"""Per-view evidence classifier: a small MLP with exact reverse-mode gradients.

Hidden layers use the rectifier; the output head applies softplus so the
network emits nonnegative per-class evidence for each (rows, features)
input row. Forward passes can cache activations for a backward call, which
accepts an upstream gradient on the evidence (or on the raw logits, for
cross-entropy baselines). One adaptive-moment update with bias correction
and decoupled weight decay steps the parameters of all heads (Kingma & Ba,
2015): the optimizer holds them in one flat buffer, and the heads hold
views of it.
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
    """Adaptive-moment optimizer with decoupled weight decay.

    It copies the arrays it is built on into one contiguous float64
    buffer, in order; ``params`` are views of that buffer shaped like them,
    and the model it trains must hold those views (``over`` hands them to
    the heads it is built for). The moments ``m`` and ``v`` are flat
    too, so a step is one finite check and one pass of the update
    arithmetic over every parameter.
    """

    def __init__(self, params, learning_rate: float = 1e-3):
        arrays = [np.asarray(p, dtype=np.float64) for p in params]
        self.flat = np.concatenate([p.ravel() for p in arrays])
        ends = np.cumsum([p.size for p in arrays])
        self.params = [self.flat[end - p.size:end].reshape(p.shape)
                       for p, end in zip(arrays, ends)]
        self.learning_rate = learning_rate
        self.step_count = 0
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)

    @classmethod
    def over(cls, networks, learning_rate: float = 1e-3) -> "Adam":
        """One optimizer over every network's parameters, in order; each network
        then holds views of the optimizer's buffer."""
        optimizer = cls([p for net in networks for p in net.params], learning_rate)
        shared = iter(optimizer.params)
        for net in networks:
            net.set_params([next(shared) for _ in net.params])
        return optimizer

    def step(self, grads) -> None:
        """Update the params in place; a non-finite gradient raises, naming its
        layer by (weight, bias) pairs counted through all the arrays in order."""
        if [np.shape(g) for g in grads] != [p.shape for p in self.params]:
            raise ValueError("gradient shapes do not match the parameters")
        g = np.concatenate([np.ravel(x) for x in grads])
        if not np.isfinite(g).all():
            i = next(i for i, x in enumerate(grads) if not np.all(np.isfinite(x)))
            kind = "weights" if i % 2 == 0 else "biases"
            raise FloatingPointError(f"non-finite gradient at layer {i // 2} {kind}")
        self.step_count += 1
        bc1 = 1.0 - BETA1 ** self.step_count
        bc2 = 1.0 - BETA2 ** self.step_count
        p, m, v = self.flat, self.m, self.v
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= self.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPS)
        p -= self.learning_rate * WEIGHT_DECAY * p

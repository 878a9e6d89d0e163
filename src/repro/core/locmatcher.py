"""LocMatcher: attention-based address-location matching (Section IV-B).

Per candidate, the 24-bin time distribution passes through a dense layer
with ``r`` neurons, is concatenated with the remaining profile + matching
features, and is projected to a ``z``-dimensional representation.  A
transformer encoder models correlations among the (orderless,
variable-size) candidate set.  An additive attention (Eq. 3) scores each
location embedding against a context vector built from the address features
(POI-category embedding + number of deliveries); a masked softmax (Eq. 4)
yields the selection distribution, trained with cross-entropy.

The DLInfMA-PN variant swaps the transformer for an LSTM (as pointer
networks do); the DLInfMA-nA ablation drops the ``U c`` context term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import locmatcher_numpy as numpy_pass
from repro.core.features import AddressExample, FeatureConfig
from repro.ml import StandardScaler
from repro.obs import event, get_registry
from repro.obs import span as obs_span
from repro.nn import (
    DEFAULT_DTYPE,
    Adam,
    Dropout,
    Embedding,
    Linear,
    LSTM,
    Module,
    StepLR,
    Tensor,
    TransformerEncoder,
    cat,
    clip_grad_norm,
)
from repro.synth.city import N_POI_CATEGORIES

#: Gradient L2 norms are unitless and span decades; log-ish bucket bounds.
GRAD_NORM_BUCKETS = (0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0)

#: Most examples scored in one forward pass: bounds the memory of a pass
#: (its attention maps grow as batch x heads x candidates^2).
MAX_SCORE_BATCH = 256


def _length_chunks(counts: np.ndarray) -> list[np.ndarray]:
    """Input positions of each scoring chunk, in ascending candidate count.

    A chunk is padded to its own largest set, so its attention maps hold
    ``rows x largest^2`` cells.  Sorted by count, a run of examples is cut
    in two, at the cut that leaves the fewest cells, whenever that cut at
    least halves the run's cells; both halves are then tried again.  A
    long tail of large sets gets its own chunk, while evenly spread counts
    are not cut into many small passes, each paying the pass's fixed
    per-call cost.  Runs longer than ``MAX_SCORE_BATCH`` are then split
    evenly.
    """
    order = np.argsort(counts, kind="stable")
    sq = counts[order].astype(np.int64) ** 2
    runs: list[np.ndarray] = []
    pending = [(0, len(order))]
    while pending:
        lo, hi = pending.pop()
        left = np.arange(1, hi - lo)  # rows before each possible cut
        cells = left * sq[lo : hi - 1] + (hi - lo - left) * sq[hi - 1]
        if len(cells) and 2 * cells.min() <= (hi - lo) * sq[hi - 1]:
            cut = lo + 1 + int(cells.argmin())
            pending += [(cut, hi), (lo, cut)]
        else:
            runs.append(order[lo:hi])
    return [
        piece
        for run in runs
        for piece in np.array_split(run, -(-len(run) // MAX_SCORE_BATCH))
    ]


@dataclass(frozen=True)
class LocMatcherConfig:
    """Model + training hyperparameters.

    Architecture values follow the paper (r=3, z=8, p=32, 3 layers, 2
    heads, 32 FFN neurons, dropout 0.1, batch 16).  The optimization
    schedule is re-tuned for dataset scale: the paper trains on ~10^5
    addresses with lr 1e-4 halved every 5 epochs; our synthetic datasets
    have ~10^2, so the learning rate is higher, the decay slower, and more
    epochs are allowed (early stopping still governs)."""

    r: int = 3
    z: int = 8
    p: int = 32
    n_layers: int = 3
    n_heads: int = 2
    d_ff: int = 32
    dropout: float = 0.1
    poi_dim: int = 3
    lr: float = 3e-3
    batch_size: int = 16
    max_epochs: int = 300
    lr_step: int = 30
    lr_gamma: float = 0.5
    patience: int = 40
    grad_clip_norm: float | None = 5.0
    encoder: str = "transformer"  # or "lstm" (DLInfMA-PN)
    lstm_hidden: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.encoder not in ("transformer", "lstm"):
            raise ValueError("encoder must be 'transformer' or 'lstm'")


class LocMatcherNet(Module):
    """The neural network itself (framework-level module)."""

    def __init__(
        self,
        n_scalar: int,
        hist_dim: int,
        config: LocMatcherConfig,
        use_address_context: bool = True,
    ) -> None:
        super().__init__()
        rng = np.random.default_rng(config.seed)
        self.config = config
        self.hist_dim = hist_dim
        self.use_address_context = use_address_context
        in_dim = n_scalar + (config.r if hist_dim else 0)
        if in_dim == 0:
            raise ValueError("model needs at least one candidate feature")
        self.hist_dense = Linear(hist_dim, config.r, rng=rng) if hist_dim else None
        self.input_dense = Linear(in_dim, config.z, rng=rng)
        if config.encoder == "transformer":
            self.encoder = TransformerEncoder(
                config.n_layers, config.z, config.n_heads, config.d_ff, config.dropout, rng=rng
            )
            enc_dim = config.z
        else:
            self.encoder = LSTM(config.z, config.lstm_hidden, rng=rng)
            enc_dim = config.lstm_hidden
        self.dropout = Dropout(config.dropout, rng=rng)
        # Additive attention (Eq. 3): s_k = v^T tanh(W z_k + U c + b).
        self.w = Linear(enc_dim, config.p, bias=True, rng=rng)
        self.v = Linear(config.p, 1, bias=False, rng=rng)
        if use_address_context:
            self.poi_embedding = Embedding(N_POI_CATEGORIES, config.poi_dim, rng=rng)
            m = config.poi_dim + 1  # + number of deliveries
            self.u = Linear(m, config.p, bias=False, rng=rng)
        else:
            self.poi_embedding = None
            self.u = None

    def forward(
        self,
        scalars: np.ndarray,  # (B, N, S)
        hist: np.ndarray | None,  # (B, N, hist_dim)
        mask: np.ndarray,  # (B, N) bool
        poi: np.ndarray,  # (B,)
        n_deliveries: np.ndarray,  # (B,) already normalized
    ) -> Tensor:
        """Raw matching scores ``(B, N)`` through autograd (mask applied
        downstream).

        The reference implementation: the selector trains and scores
        through the equivalent hand-written pass in
        :mod:`repro.core.locmatcher_numpy`, which tests hold to this one.
        Computes in the parameters' dtype.
        """
        dtype = self.input_dense.weight.dtype
        parts = [Tensor(np.asarray(scalars), dtype=dtype)]
        if self.hist_dense is not None:
            if hist is None:
                raise ValueError("model was built with a time-histogram input")
            parts.append(self.hist_dense(Tensor(np.asarray(hist), dtype=dtype)).tanh())
        candidate_input = cat(parts, axis=-1) if len(parts) > 1 else parts[0]
        h = self.input_dense(candidate_input).relu()
        h = self.dropout(h)
        if self.config.encoder == "transformer":
            encoded = self.encoder(h, key_mask=np.asarray(mask, dtype=bool))
        else:
            encoded, _ = self.encoder(h)
        pre = self.w(encoded)  # (B, N, p)
        if self.use_address_context:
            ndel = Tensor(np.asarray(n_deliveries).reshape(-1, 1), dtype=dtype)
            context = cat([self.poi_embedding(poi), ndel], axis=-1)  # (B, m)
            b, n, p = pre.shape
            pre = pre + self.u(context).reshape(b, 1, p)
        # v^T tanh(.) as a multiply-and-sum: a (p, 1) matmul goes to BLAS
        # gemv, whose rounding depends on how many rows share the call,
        # and a candidate's score must not depend on its batch.
        return (pre.tanh() * self.v.weight.reshape(-1)).sum(axis=-1)  # (B, N)


class LocMatcherSelector:
    """Trains LocMatcher on labeled examples and scores candidate sets."""

    def __init__(
        self,
        feature_config: FeatureConfig | None = None,
        config: LocMatcherConfig | None = None,
    ) -> None:
        self.feature_config = feature_config or FeatureConfig()
        self.config = config or LocMatcherConfig()
        self.net: LocMatcherNet | None = None
        self.scaler = StandardScaler()
        self._deliv_mean = 0.0
        self._deliv_std = 1.0
        self.history: list[dict[str, float]] = []

    # ------------------------------------------------------------------
    def _normalize_deliveries(self, values: np.ndarray) -> np.ndarray:
        return (np.log1p(values) - self._deliv_mean) / self._deliv_std

    def _make_batch(self, examples: list[AddressExample]):
        """Float32 batch arrays padded to the batch's largest candidate set
        (padded slots are masked out)."""
        counts = np.array([e.n_candidates for e in examples])
        mask = np.arange(counts.max()) < counts[:, None]
        rows = np.concatenate([e.features for e in examples])  # mask order
        scalar_cols = self.feature_config.scalar_columns()
        hist_cols = self.feature_config.hist_columns()
        scalars = np.zeros(mask.shape + (len(scalar_cols),), dtype=DEFAULT_DTYPE)
        if scalar_cols:
            scalars[mask] = self.scaler.transform(rows[:, scalar_cols])
        hist = None
        if hist_cols:
            hist = np.zeros(mask.shape + (len(hist_cols),), dtype=DEFAULT_DTYPE)
            hist[mask] = rows[:, hist_cols]
        poi = np.zeros(len(examples), dtype=int)
        if self.feature_config.use_address:
            poi[:] = [e.poi_category for e in examples]
            bad = np.flatnonzero((poi < 0) | (poi >= N_POI_CATEGORIES))
            if len(bad):
                example = examples[bad[0]]
                raise ValueError(
                    f"address {example.address_id}: POI category {example.poi_category} "
                    f"outside [0, {N_POI_CATEGORIES})"
                )
        deliveries = self._normalize_deliveries(np.array([e.n_deliveries for e in examples]))
        labels = np.array([e.label if e.label is not None else 0 for e in examples])
        return scalars, hist, mask, poi, deliveries, labels

    def _train_step(self, batch: tuple) -> tuple[float, int]:
        """One forward + backward pass over a :meth:`_make_batch` batch.

        Returns the loss and how many examples scored their label highest;
        parameter gradients are left on ``p.grad`` for the caller to clip
        and step.
        """
        scalars, hist, mask, poi, deliveries, labels = batch
        scores, tape = numpy_pass.forward(self.net, scalars, hist, mask, poi, deliveries)
        loss, d_scores = numpy_pass.masked_cross_entropy(scores, mask, labels)
        numpy_pass.backward(self.net, tape, d_scores)
        n_correct = int((np.where(mask, scores, -np.inf).argmax(axis=1) == labels).sum())
        return loss, n_correct

    # ------------------------------------------------------------------
    def fit(
        self,
        train: list[AddressExample],
        val: list[AddressExample] | None = None,
        warm_start: bool = False,
    ) -> "LocMatcherSelector":
        """Train until the validation loss stops improving.

        ``warm_start=True`` with a previously fitted net continues training
        from the current weights and keeps the existing feature
        normalization (the incremental-update path, Section VI-A); it is
        ignored on a fresh selector.
        """
        train = [e for e in train if e.label is not None]
        if not train:
            raise ValueError("no labeled training examples")
        val = [e for e in (val or []) if e.label is not None]
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        scalar_cols = self.feature_config.scalar_columns()
        warm = warm_start and self.net is not None
        if not warm:
            if scalar_cols:
                self.scaler.fit(np.vstack([e.features[:, scalar_cols] for e in train]))
            logs = np.log1p([e.n_deliveries for e in train])
            self._deliv_mean = float(np.mean(logs))
            self._deliv_std = float(np.std(logs)) or 1.0

            self.net = LocMatcherNet(
                n_scalar=len(scalar_cols),
                hist_dim=len(self.feature_config.hist_columns()),
                config=cfg,
                use_address_context=self.feature_config.use_address,
            )
        optimizer = Adam(self.net.parameters(), lr=cfg.lr)
        scheduler = StepLR(optimizer, step_size=cfg.lr_step, gamma=cfg.lr_gamma)

        registry = get_registry()
        loss_gauge = registry.gauge(
            "locmatcher_train_loss", "Mean training cross-entropy of the last epoch"
        )
        monitor_gauge = registry.gauge(
            "locmatcher_monitor_loss", "Early-stopping monitor loss of the last epoch"
        )
        acc_gauge = registry.gauge(
            "locmatcher_train_accuracy", "Training top-1 accuracy of the last epoch"
        )
        epoch_gauge = registry.gauge(
            "locmatcher_epochs_run", "Epochs completed by the last fit call"
        )
        grad_hist = registry.histogram(
            "locmatcher_grad_norm",
            "Pre-clipping global gradient L2 norm per optimizer step",
            buckets=GRAD_NORM_BUCKETS,
        )

        best_loss = np.inf
        best_state = self.net.state_dict()
        bad_epochs = 0
        epochs_run = 0
        order = np.arange(len(train))
        with obs_span(
            "locmatcher.fit", n_train=len(train), n_val=len(val), warm_start=warm
        ) as sp:
            for epoch in range(cfg.max_epochs):
                self.net.train()
                rng.shuffle(order)
                train_loss = 0.0
                n_batches = 0
                n_correct = 0
                for start in range(0, len(order), cfg.batch_size):
                    batch = [train[i] for i in order[start : start + cfg.batch_size]]
                    optimizer.zero_grad()
                    loss_val, correct = self._train_step(self._make_batch(batch))
                    if cfg.grad_clip_norm is not None:
                        norm = clip_grad_norm(optimizer.params, cfg.grad_clip_norm)
                        grad_hist.observe(norm)
                    optimizer.step()
                    n_correct += correct
                    train_loss += loss_val
                    n_batches += 1
                scheduler.step()
                epochs_run = epoch + 1
                mean_loss = train_loss / max(1, n_batches)
                accuracy = n_correct / max(1, len(train))
                monitor = self._evaluate_loss(val) if val else mean_loss
                loss_gauge.set(mean_loss)
                monitor_gauge.set(monitor)
                acc_gauge.set(accuracy)
                epoch_gauge.set(epochs_run)
                self.history.append(
                    {
                        "epoch": epoch,
                        "train_loss": mean_loss,
                        "monitor": monitor,
                        "accuracy": accuracy,
                    }
                )
                if monitor < best_loss - 1e-5:
                    best_loss = monitor
                    best_state = self.net.state_dict()
                    bad_epochs = 0
                else:
                    bad_epochs += 1
                    if bad_epochs >= cfg.patience:
                        break
            if sp is not None:
                sp.set("epochs_run", epochs_run)
                sp.set("best_loss", float(best_loss))
        event(
            "locmatcher.fit.complete", component="locmatcher",
            epochs=epochs_run, best_loss=float(best_loss),
            n_train=len(train), n_val=len(val), warm_start=warm,
        )
        self.net.load_state_dict(best_state)
        self.net.eval()
        return self

    def _scored_chunks(self, examples: list[AddressExample]):
        """Eval-mode ``(positions, scores, mask, labels)`` per chunk.

        ``positions`` index ``examples``; chunks come from
        :func:`_length_chunks`, so each is padded only to its own largest
        candidate set.  The mask keeps padding out of every real score,
        so a score does not depend on its chunk.
        """
        if self.net.training:
            self.net.eval()
        counts = np.array([e.n_candidates for e in examples])
        for positions in _length_chunks(counts):
            chunk = [examples[i] for i in positions]
            scalars, hist, mask, poi, deliveries, labels = self._make_batch(chunk)
            scores, _ = numpy_pass.forward(
                self.net, scalars, hist, mask, poi, deliveries, keep_tape=False
            )
            yield positions, scores, mask, labels

    def _evaluate_loss(self, examples: list[AddressExample]) -> float:
        """Mean cross-entropy per example."""
        total = 0.0
        for positions, scores, mask, labels in self._scored_chunks(examples):
            total += numpy_pass.masked_cross_entropy(scores, mask, labels)[0] * len(positions)
        return total / len(examples)

    # ------------------------------------------------------------------
    def scores(self, example: AddressExample) -> np.ndarray:
        """Selection probabilities over the example's candidates."""
        return self.scores_batch([example])[0]

    def scores_batch(self, examples: list[AddressExample]) -> list[np.ndarray]:
        """Probabilities for many examples at once, in input order.

        Batched inference amortizes the per-call numpy overhead — this is
        how the deployed system reaches its offline throughput (Figure
        13).  Examples are scored in chunks of similar candidate counts,
        each padded only to its own largest set (padding is fully masked),
        so scores match per-example calls.
        """
        if self.net is None:
            raise RuntimeError("selector is not fitted")
        if not examples:
            return []
        out: list[np.ndarray] = [None] * len(examples)
        for positions, scores, mask, _ in self._scored_chunks(examples):
            probs = numpy_pass.masked_softmax(scores, mask)
            for row, i in enumerate(positions):
                out[i] = probs[row, : examples[i].n_candidates]
        return out

    def predict_index(self, example: AddressExample) -> int:
        """Index of the selected candidate."""
        return int(self.scores(example).argmax())

    def predict_index_batch(self, examples: list[AddressExample]) -> list[int]:
        """Selected candidate index per example, batched."""
        return [int(s.argmax()) for s in self.scores_batch(examples)]

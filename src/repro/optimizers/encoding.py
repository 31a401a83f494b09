"""Numeric encoding of configuration spaces for surrogate models.

Optimizers and surrogates operate on fixed-length float vectors:

* numeric knobs map to their min-max scaled unit value in ``[0, 1]``;
* categorical knobs map to their category index ``0 .. k-1`` and are
  flagged in :attr:`SpaceEncoding.is_categorical` so kernels/trees can
  treat them without assuming an order (the Hamming kernel of GP-BO does;
  the random forest uses index thresholds, which is exact for the
  ubiquitous binary on/off knobs).
"""

from __future__ import annotations

import numpy as np

from repro.space.configspace import Configuration, ConfigurationSpace
from repro.space.knob import CategoricalKnob
from repro.space.sampling import latin_hypercube_unit


class SpaceEncoding:
    """Bidirectional mapping between configurations and float vectors."""

    def __init__(self, space: ConfigurationSpace):
        self.space = space
        self.is_categorical = np.array(
            [isinstance(k, CategoricalKnob) for k in space], dtype=bool
        )
        self.n_categories = np.array(
            [
                len(k.choices) if isinstance(k, CategoricalKnob) else 0
                for k in space
            ],
            dtype=int,
        )
        self._has_categorical = bool(self.is_categorical.any())

    @property
    def dim(self) -> int:
        return self.space.dim

    def encode(self, config: Configuration) -> np.ndarray:
        return self.encode_batch([config])[0]

    def encode_batch(self, configs: list[Configuration]) -> np.ndarray:
        """Encode ``N`` configurations into an ``N x D`` matrix at once.

        Numeric knobs carry their unit value, categoricals their category
        index — i.e. the space's unit matrix with categorical bin centers
        mapped back to indices.
        """
        unit = self.space.to_unit_array(configs)
        cat = np.flatnonzero(self.is_categorical)
        if len(cat):
            # Invert the bin-center mapping: (index + 0.5) / k -> index.
            unit[:, cat] = np.rint(unit[:, cat] * self.n_categories[cat] - 0.5)
        return unit

    def decode(self, vector: np.ndarray) -> Configuration:
        return self.decode_batch(np.atleast_2d(np.asarray(vector, dtype=float)))[0]

    def decode_batch(self, vectors: np.ndarray) -> list[Configuration]:
        """Decode an ``N x D`` matrix into ``N`` configurations at once."""
        vectors = np.asarray(vectors, dtype=float)
        arrays = self.space.arrays
        columns = self.space._columns_from_unit(vectors)
        for j in np.flatnonzero(self.is_categorical):
            k = self.n_categories[j]
            index = np.clip(np.rint(vectors[:, j]), 0, k - 1).astype(np.int64)
            choices = arrays.choices[j]
            columns[j] = [choices[i] for i in index.tolist()]
        return self.space._configurations_from_columns(columns)

    # --- sampling in encoded coordinates -----------------------------------

    def random_vectors(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._from_unit_rows(rng.random((n, self.dim)))

    def lhs_vectors(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._from_unit_rows(latin_hypercube_unit(n, self.dim, rng))

    def _from_unit_rows(self, unit: np.ndarray) -> np.ndarray:
        vectors = unit.copy()
        for i in np.flatnonzero(self.is_categorical):
            k = self.n_categories[i]
            vectors[:, i] = np.minimum((unit[:, i] * k).astype(int), k - 1)
        return vectors

    # --- local-search moves -------------------------------------------------

    def neighbors(
        self,
        vector: np.ndarray,
        rng: np.random.Generator,
        n: int = 8,
        step: float = 0.1,
    ) -> np.ndarray:
        """Random one-dimension perturbations of ``vector``.

        Numeric dimensions take a Gaussian step (std ``step`` of the unit
        range); categorical dimensions resample a different category.
        """
        out = np.repeat(vector[None, :], n, axis=0)
        rows = np.arange(n)
        dims = rng.integers(0, self.dim, size=n)
        if not self._has_categorical:
            # All-numeric space (e.g. the LlamaTune synthetic projection):
            # every perturbed dimension takes the Gaussian step — same
            # draws (one integers fill, one normal fill), masks skipped.
            steps = rng.normal(0.0, step, size=n)
            out[rows, dims] = (vector[dims] + steps).clip(0.0, 1.0)
            return out
        cat = self.is_categorical[dims]
        num_rows, num_dims = rows[~cat], dims[~cat]
        if len(num_rows):
            steps = rng.normal(0.0, step, size=len(num_rows))
            out[num_rows, num_dims] = np.clip(
                vector[num_dims] + steps, 0.0, 1.0
            )
        cat_rows, cat_dims = rows[cat], dims[cat]
        if len(cat_rows):
            k = self.n_categories[cat_dims]
            current = np.clip(vector[cat_dims].astype(int), 0, k - 1)
            # Uniform draw over the k-1 other categories: sample an index in
            # [0, k-1) and skip past the current category.
            other = (rng.random(len(cat_rows)) * (k - 1)).astype(int)
            out[cat_rows, cat_dims] = np.where(other >= current, other + 1, other)
        return out

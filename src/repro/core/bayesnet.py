"""A Bayesian-network selectivity estimator (scenario-diversity arm).

A sample-backed baseline between the AVI histogram product and the
paper's robust estimator: per table, a *Chow–Liu tree* — the maximum
mutual-information spanning tree over the table's discretized sample
columns — approximates the joint attribute distribution with pairwise
marginals (Halford et al., "An Approach Based on Bayesian Networks for
Query Selectivity Estimation"). Conjuncts on tree columns become soft
evidence and are answered by exact sum-product inference on the tree,
so *pairwise* correlations along tree edges are captured while the
model stays linear in the number of columns.

Everything the tree cannot express falls back one rung at a time:

- conjuncts touching several columns of one table, string columns, or
  columns missing from the sample → the direct sample fraction;
- cross-table join conditions → the CDF sketch via
  :meth:`CardinalityEstimator.condition_selectivity`;
- residual multi-table conjuncts → magic numbers.

Across tables the estimator multiplies per-table selectivities (the
same containment assumption as the histogram arm) — its edge over that
arm is *within-table* correlation only, which is precisely what the
star and snowflake scenarios vary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.estimator import PointEstimator
from repro.core.magic import MagicNumbers
from repro.expressions import Expr, split_conjuncts
from repro.indexes.sorted_index import sorted_unique
from repro.stats import StatisticsManager

#: Upper bound on quantile bins per column. Small on purpose: with n
#: sample rows and k bins the edge joints hold n/k² rows per cell, and
#: the 500-row default sample needs k² ≪ n for the joints to be real.
MAX_BINS = 8

#: Laplace smoothing mass added to each joint table (spread over its
#: cells) so conditionals stay defined on empty cells.
SMOOTHING = 1.0


@dataclass(frozen=True)
class _ChowLiuTree:
    """The fitted per-table model: binned columns + tree factors."""

    #: Column name (unqualified) → node index.
    nodes: dict
    #: Per node: bin id of every sample row, shape (num_rows,).
    assignments: tuple
    #: Per node: number of bins.
    cardinalities: tuple
    #: Per node: smoothed marginal P(node), shape (bins,).
    marginals: tuple
    #: Tree edges as (parent node index, child node index), rooted at
    #: node 0; every non-root node appears exactly once as a child.
    edges: tuple
    #: Per edge: smoothed joint P(parent, child).
    joints: tuple


class BayesNetCardinalityEstimator(PointEstimator):
    """Chow–Liu tree inference over the per-table samples."""

    source = "bayes"

    def __init__(
        self,
        statistics: StatisticsManager,
        magic: MagicNumbers | None = None,
        max_bins: int = MAX_BINS,
    ) -> None:
        super().__init__(statistics, magic)
        self.max_bins = max_bins

    def describe(self) -> str:
        return "bayes-net"

    # ------------------------------------------------------------------
    # per-table inference
    # ------------------------------------------------------------------
    def _table_selectivity(self, table_name: str, predicate: Expr) -> float:
        sample = self.statistics.sample_for(table_name)
        if sample is None or sample.size == 0:
            sel = 1.0
            for conjunct in split_conjuncts(predicate):
                sel *= self.magic.for_predicate(conjunct)
            return sel

        tree = self._tree_for(table_name)
        evidence: dict[int, np.ndarray] = {}
        selectivity = 1.0
        for conjunct in split_conjuncts(predicate):
            node = self._evidence_node(tree, table_name, conjunct)
            if node is None:
                # not expressible on the tree: direct sample fraction
                selectivity *= sample.count_satisfying(conjunct) / sample.size
                continue
            weights = self._conjunct_weights(tree, node, sample, conjunct)
            if node in evidence:
                evidence[node] = evidence[node] * weights
            else:
                evidence[node] = weights
        if evidence:
            selectivity *= self._probability_of_evidence(tree, evidence)
        return float(min(1.0, max(0.0, selectivity)))

    def _evidence_node(
        self, tree: _ChowLiuTree | None, table_name: str, conjunct: Expr
    ) -> int | None:
        """The tree node a conjunct constrains, or ``None``."""
        if tree is None:
            return None
        columns = {
            column
            for table, column in conjunct.columns()
            if table in (None, table_name)
        }
        if len(columns) != 1:
            return None
        return tree.nodes.get(next(iter(columns)))

    def _conjunct_weights(
        self, tree: _ChowLiuTree, node: int, sample, conjunct: Expr
    ) -> np.ndarray:
        """Soft evidence: per bin, the fraction of its sample rows
        satisfying the conjunct."""
        mask = np.asarray(conjunct.evaluate(sample.frame), dtype=bool)
        bins = tree.assignments[node]
        k = tree.cardinalities[node]
        hits = np.bincount(bins[mask], minlength=k).astype(float)
        totals = np.bincount(bins, minlength=k).astype(float)
        return np.divide(
            hits, totals, out=np.zeros(k, dtype=float), where=totals > 0
        )

    def _probability_of_evidence(
        self, tree: _ChowLiuTree, evidence: dict[int, np.ndarray]
    ) -> float:
        """Sum-product over the tree with soft evidence weights.

        One upward pass: each child sends its parent the message
        ``m[x_p] = Σ_{x_c} P(x_c | x_p) · w[x_c] · Π m_children``;
        processing ``tree.edges`` in reverse visits children before
        parents (edges are recorded in root-outward discovery order).
        """
        beliefs = [
            evidence.get(node, np.ones(k))
            for node, k in enumerate(tree.cardinalities)
        ]
        for index in range(len(tree.edges) - 1, -1, -1):
            parent, child = tree.edges[index]
            joint = tree.joints[index]  # shape (parent bins, child bins)
            conditional = joint / joint.sum(axis=1, keepdims=True)
            message = conditional @ beliefs[child]
            beliefs[parent] = beliefs[parent] * message
        return float(np.dot(tree.marginals[0], beliefs[0]))

    # ------------------------------------------------------------------
    # model fitting
    # ------------------------------------------------------------------
    def _tree_for(self, table_name: str) -> _ChowLiuTree | None:
        """The table's fitted tree, kept in the estimate memo: a
        statistics refresh re-draws the sample it is fit to."""
        return self._memoized(
            ("chow-liu tree", table_name),
            lambda: self._fit_tree(table_name),
            counted=False,
        )

    def _fit_tree(self, table_name: str) -> _ChowLiuTree | None:
        sample = self.statistics.sample_for(table_name)
        if sample is None or sample.size == 0:
            return None
        prefix = f"{table_name}."
        nodes: dict[str, int] = {}
        assignments: list[np.ndarray] = []
        cardinalities: list[int] = []
        for qualified in sorted(sample.frame.column_names):
            if not qualified.startswith(prefix):
                continue
            values = np.asarray(sample.frame.column(qualified))
            if values.dtype.kind not in "iuf":
                continue  # strings and the like: sample-fraction fallback
            bins, k = self._discretize(values)
            if k < 2:
                continue  # constant column carries no information
            nodes[qualified[len(prefix):]] = len(assignments)
            assignments.append(bins)
            cardinalities.append(k)
        if not nodes:
            return None

        n = sample.size
        marginals = [
            (np.bincount(bins, minlength=k) + SMOOTHING / k) / (n + SMOOTHING)
            for bins, k in zip(assignments, cardinalities)
        ]
        edges, joints = self._spanning_tree(assignments, cardinalities, n)
        return _ChowLiuTree(
            nodes=nodes,
            assignments=tuple(assignments),
            cardinalities=tuple(cardinalities),
            marginals=tuple(marginals),
            edges=tuple(edges),
            joints=tuple(joints),
        )

    def _discretize(self, values: np.ndarray) -> tuple[np.ndarray, int]:
        """Quantile-bin ``values``; returns (bin ids, bin count)."""
        quantiles = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
        edges = sorted_unique(np.quantile(values, quantiles))
        bins = np.searchsorted(edges, values, side="right")
        return bins.astype(np.intp), len(edges) + 1

    def _spanning_tree(
        self,
        assignments: list[np.ndarray],
        cardinalities: list[int],
        n: int,
    ) -> tuple[list[tuple[int, int]], list[np.ndarray]]:
        """Prim over pairwise mutual information, rooted at node 0.

        Deterministic: candidate edges are scanned in (node, node)
        order and strict ``>`` keeps the first of any MI tie, so the
        tree never depends on dict iteration or float summation order
        beyond the MI values themselves.
        """
        count = len(assignments)
        if count < 2:
            return [], []

        joint_cache: dict[tuple[int, int], np.ndarray] = {}

        def joint(u: int, v: int) -> np.ndarray:
            key = (u, v) if u < v else (v, u)
            if key not in joint_cache:
                a, b = key
                ka, kb = cardinalities[a], cardinalities[b]
                counts = np.bincount(
                    assignments[a] * kb + assignments[b], minlength=ka * kb
                ).reshape(ka, kb)
                joint_cache[key] = (counts + SMOOTHING / (ka * kb)) / (
                    n + SMOOTHING
                )
            table = joint_cache[key]
            return table if (u, v) == key else table.T

        def mutual_information(u: int, v: int) -> float:
            p = joint(u, v)
            pu = p.sum(axis=1, keepdims=True)
            pv = p.sum(axis=0, keepdims=True)
            return float(np.sum(p * np.log(p / (pu * pv))))

        in_tree = {0}
        edges: list[tuple[int, int]] = []
        joints: list[np.ndarray] = []
        while len(in_tree) < count:
            best, best_mi = None, -np.inf
            for u in sorted(in_tree):
                for v in range(count):
                    if v in in_tree:
                        continue
                    mi = mutual_information(u, v)
                    if mi > best_mi:
                        best, best_mi = (u, v), mi
            parent, child = best
            in_tree.add(child)
            edges.append((parent, child))
            joints.append(joint(parent, child))
        return edges, joints

"""Mining candidate behavior rules from labeled corpus observations.

The bundled ruleset is hand-written from family profiles and
deliberately ships with a ``lowkey_spy``-shaped blind spot
(``docs/rules.md``).  This module closes that loop the way the paper's
operators did: mine frequent A+P+I evidence itemsets from a labeled
corpus, score them on a held-out split, keep the precise / high-lift
ones, and emit a versioned *generated ruleset* artifact that the
serving tier can hot-swap in (:class:`repro.serve.RulesetRegistry`).

Pipeline (``docs/rule_mining.md`` walks the algorithm in detail):

1. **Encode** the corpus observations through the production
   :class:`~repro.core.features.FeatureSpace` into one boolean
   apps x (A+P+I) matrix, and split it into a mining half and a
   held-out scoring half with a seeded permutation.
2. **Enumerate** frequent itemsets per malware family with Apriori
   over the columnar block: the item pool is capped to the top-K
   columns by support lift over benign, and level-``k`` candidate
   support is counted with one boolean matmul (``rows @ C == k``),
   never a per-app loop.
3. **Score** every candidate on the held-out half at AND-match
   semantics: precision ``P(malicious | match)`` and family lift
   ``P(family | match) / P(family)``.
4. **Select** with a greedy fire-union set cover per family under the
   evaluator's *actual* hit semantics (a rule with required
   permissions fires at stage 1 when any required permission is
   present), then fill the per-family budget with the top-scored
   remainder.
5. **Deduplicate** against the bundled set and among mined rules
   (evidence subset/superset and Jaccard-overlap collapse), attach an
   anchor API to API-less itemsets (:class:`RuleSpec` requires one),
   lint, and emit a deterministic JSON artifact: same seed + corpus
   => byte-identical bytes, hashed for registry integrity.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.features import AppObservation, FeatureSpace
from repro.obs import MetricsRegistry
from repro.records import atomic_write
from repro.rules.builtin import builtin_ruleset
from repro.rules.lint import lint_ruleset
from repro.rules.spec import RuleSpec

__all__ = [
    "GENERATED_FORMAT_VERSION",
    "MinedRule",
    "MinedRuleset",
    "MiningError",
    "load_generated_ruleset",
    "mine_from_corpus",
    "mine_ruleset",
]

#: Schema marker for the ``generated`` block of a mined artifact.
GENERATED_FORMAT_VERSION = 1


class MiningError(ValueError):
    """Rule mining could not produce a valid ruleset."""


@dataclass(frozen=True)
class MinedRule:
    """One mined rule with its held-out evaluation statistics.

    Attributes:
        spec: the emitted rule.
        family: malware family the itemset was mined from.
        support: AND-match support among the family's mining rows.
        precision: ``P(malicious | AND-match)`` on the held-out half.
        lift: ``P(family | AND-match) / P(family)`` on the held-out
            half.
        fire_coverage: fraction of held-out family rows the rule fires
            on under the evaluator's stage-1 hit semantics.
        n_matches: held-out AND-match count the scores are based on.
    """

    spec: RuleSpec
    family: str
    support: float
    precision: float
    lift: float
    fire_coverage: float
    n_matches: int

    def stats_dict(self) -> dict:
        return {
            "family": self.family,
            "support": round(float(self.support), 6),
            "precision": round(float(self.precision), 6),
            "lift": round(float(self.lift), 6),
            "fire_coverage": round(float(self.fire_coverage), 6),
            "n_matches": int(self.n_matches),
        }


@dataclass(frozen=True)
class MinedRuleset:
    """Result of one :func:`mine_ruleset` run.

    ``specs`` is the full serving set (base rules first, mined rules
    after); ``rules`` carries the mined rules with their statistics.
    """

    rules: tuple[MinedRule, ...]
    base: tuple[RuleSpec, ...]
    params: Mapping[str, object]
    families: Mapping[str, Mapping[str, object]]
    n_observations: int
    n_mine: int
    n_holdout: int

    def __len__(self) -> int:
        return len(self.base) + len(self.rules)

    @property
    def specs(self) -> tuple[RuleSpec, ...]:
        """Base rules followed by mined rules — the deployable set."""
        return self.base + tuple(r.spec for r in self.rules)

    @property
    def mined_specs(self) -> tuple[RuleSpec, ...]:
        return tuple(r.spec for r in self.rules)

    # ------------------------------------------------------------------
    # Artifact emission — deterministic by construction
    # ------------------------------------------------------------------

    def to_artifact(self) -> dict:
        """The generated-ruleset wire object.

        Loadable by the stock :func:`repro.rules.load_ruleset` (which
        ignores the ``generated`` block) and round-trippable through
        :func:`load_generated_ruleset`.  Contains no wall-clock or
        other run-dependent state, so the same seed and corpus always
        produce the same object.
        """
        return {
            "version": 1,
            "generated": {
                "format": GENERATED_FORMAT_VERSION,
                "algorithm": "apriori/and-score/fire-cover",
                "params": dict(self.params),
                "families": {k: dict(v) for k, v in self.families.items()},
                "split": {
                    "observations": self.n_observations,
                    "mine": self.n_mine,
                    "holdout": self.n_holdout,
                },
                "base_behaviors": [s.behavior for s in self.base],
                "stats": {
                    r.spec.behavior: r.stats_dict() for r in self.rules
                },
            },
            "rules": [s.to_dict() for s in self.specs],
        }

    def to_json(self) -> str:
        """Canonical serialization (sorted keys, fixed rounding)."""
        return json.dumps(self.to_artifact(), indent=2, sort_keys=True) + "\n"

    @property
    def sha256(self) -> str:
        """Content hash of the canonical artifact bytes."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def save(self, path: str | Path) -> Path:
        """Write the artifact atomically; returns the final path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(path, self.to_json().encode())
        return path


def load_generated_ruleset(source: str | Path | bytes | dict) -> MinedRuleset:
    """Reload a generated ruleset artifact with its mining statistics.

    Accepts a path, raw JSON text/bytes, or the parsed artifact dict.
    For plain (hand-written) rulesets without a ``generated`` block use
    :func:`repro.rules.load_ruleset` instead.
    """
    if isinstance(source, bytes):
        raw = json.loads(source.decode("utf-8"))
    elif isinstance(source, dict):
        raw = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            raw = json.loads(text)
        else:
            raw = json.loads(Path(text).read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or "generated" not in raw:
        raise MiningError(
            "not a generated ruleset artifact (no 'generated' block); "
            "use repro.rules.load_ruleset for plain rulesets"
        )
    gen = raw["generated"]
    if gen.get("format") != GENERATED_FORMAT_VERSION:
        raise MiningError(
            f"unsupported generated-ruleset format: {gen.get('format')!r}"
        )
    specs = [RuleSpec.from_dict(r) for r in raw.get("rules", [])]
    by_behavior = {s.behavior: s for s in specs}
    base_behaviors = list(gen.get("base_behaviors", []))
    stats = gen.get("stats", {})
    missing = [b for b in base_behaviors if b not in by_behavior]
    missing += [b for b in stats if b not in by_behavior]
    if missing:
        raise MiningError(
            f"artifact stats/base reference unknown behaviors: {missing}"
        )
    base = tuple(by_behavior[b] for b in base_behaviors)
    rules = tuple(
        MinedRule(
            spec=by_behavior[behavior],
            family=str(rec["family"]),
            support=float(rec["support"]),
            precision=float(rec["precision"]),
            lift=float(rec["lift"]),
            fire_coverage=float(rec["fire_coverage"]),
            n_matches=int(rec["n_matches"]),
        )
        # mined rules keep artifact order (rules list order, base first)
        for behavior, rec in (
            (s.behavior, stats[s.behavior])
            for s in specs
            if s.behavior in stats
        )
    )
    split = gen.get("split", {})
    return MinedRuleset(
        rules=rules,
        base=base,
        params=dict(gen.get("params", {})),
        families={k: dict(v) for k, v in gen.get("families", {}).items()},
        n_observations=int(split.get("observations", 0)),
        n_mine=int(split.get("mine", 0)),
        n_holdout=int(split.get("holdout", 0)),
    )


# ----------------------------------------------------------------------
# Column bookkeeping
# ----------------------------------------------------------------------


def _column_names(fs: FeatureSpace) -> tuple[list[str], int, int]:
    """Per-column evidence names plus (api_width, bits_per_api)."""
    n_perm = len(fs.permission_names)
    n_intent = len(fs.intent_names)
    api_width = fs.n_features - n_perm - n_intent
    bits = api_width // max(len(fs.api_ids), 1) if api_width else 1
    names: list[str] = []
    for col in range(fs.n_features):
        kind = fs.kind_of_column(col)
        if kind == "api":
            names.append(fs.sdk.api(int(fs.api_ids[col // bits])).name)
        elif kind == "permission":
            names.append(fs.permission_names[col - api_width])
        else:
            names.append(fs.intent_names[col - api_width - n_perm])
    return names, api_width, bits


def _evidence_set(spec: RuleSpec) -> frozenset[tuple[str, str]]:
    return frozenset(
        [("api", a) for a in spec.apis]
        + [("permission", p) for p in spec.permissions]
        + [("intent", i) for i in spec.intents]
    )


def _collapses(
    ev: frozenset, other: frozenset, max_overlap: float
) -> bool:
    """Subset/superset or Jaccard-overlap collapse between evidence sets."""
    if ev <= other or other <= ev:
        return True
    union = len(ev | other)
    if union == 0:
        return True
    return len(ev & other) / union >= max_overlap


def _frequent_itemsets(
    rows: np.ndarray,
    items: Sequence[int],
    min_support: float,
    max_len: int,
) -> list[tuple[int, ...]]:
    """Level-wise Apriori over ``items``; one matmul per level."""
    out: list[tuple[int, ...]] = [(i,) for i in items]
    level = list(out)
    counted = rows.astype(np.int32)
    while level and len(level[0]) < max_len:
        joined = sorted(
            {
                tuple(sorted(set(a) | set(b)))
                for a, b in combinations(level, 2)
                if len(set(a) | set(b)) == len(level[0]) + 1
            }
        )
        if not joined:
            break
        C = np.zeros((rows.shape[1], len(joined)), dtype=np.int32)
        for j, itemset in enumerate(joined):
            C[list(itemset), j] = 1
        k = len(joined[0])
        support = ((counted @ C) == k).mean(axis=0)
        level = [s for s, sv in zip(joined, support) if sv >= min_support]
        out.extend(level)
    return out


def _fire_vector(
    X: np.ndarray, columns: Sequence[int], kinds: Sequence[str]
) -> np.ndarray:
    """Evaluator stage>=1 hit semantics for one candidate rule.

    A rule with required permissions fires when *any* required
    permission is present (stage 1 of the confidence ladder); a rule
    without permissions fires on any API/intent evidence match.
    """
    perm_cols = [c for c, k in zip(columns, kinds) if k == "permission"]
    if perm_cols:
        return X[:, perm_cols].any(axis=1)
    rest = [c for c, k in zip(columns, kinds) if k != "permission"]
    return X[:, rest].any(axis=1)


# ----------------------------------------------------------------------
# The miner
# ----------------------------------------------------------------------


def mine_ruleset(
    observations: Sequence[AppObservation],
    labels: Sequence[bool] | np.ndarray,
    families: Sequence[str],
    feature_space: FeatureSpace,
    *,
    base: Iterable[RuleSpec] | None = None,
    min_support: float = 0.15,
    top_k_items: int = 14,
    max_len: int = 3,
    min_item_lift: float = 0.05,
    min_matches: int = 5,
    min_precision: float = 0.7,
    min_lift: float = 2.0,
    max_rules_per_family: int = 12,
    max_overlap: float = 0.8,
    min_family_rows: int = 8,
    weight: float = 1.0,
    seed: int = 0,
    registry: MetricsRegistry | None = None,
) -> MinedRuleset:
    """Mine a deployable ruleset from labeled observations.

    Args:
        observations: production-engine observations of the corpus.
        labels: per-app malicious flags, aligned with ``observations``.
        families: per-app family names (generator truth; ignored for
            benign apps), aligned with ``observations``.
        feature_space: the fitted production feature space — mining
            over it guarantees every mined API is tracked, so mined
            rules survive ``RuleCompiler(on_untracked="drop")``.
        base: rules to deduplicate against and ship alongside the
            mined ones (default: the bundled ruleset).
        min_support: Apriori support floor on the family's mining rows.
        top_k_items: per-family item-pool cap, ranked by support lift
            over benign (the lever that keeps Apriori from exploding).
        max_len: maximum itemset length.
        min_item_lift: singleton support-over-benign floor for the pool.
        min_matches: minimum held-out AND matches for a score to count.
        min_precision: held-out precision floor for candidates.
        min_lift: held-out family-lift floor for candidates.
        max_rules_per_family: per-family emitted-rule budget.
        max_overlap: Jaccard evidence-overlap collapse threshold.
        min_family_rows: families with fewer mining rows are skipped.
        weight: weight assigned to every mined rule.
        seed: mining/holdout permutation seed — with the same corpus it
            makes the emitted artifact byte-identical.
        registry: metrics registry for ``rules_mined_total``.

    Raises:
        MiningError: on malformed inputs, a split without both classes,
            or a mined set that fails :func:`lint_ruleset` with errors.
    """
    n = len(observations)
    if n == 0:
        raise MiningError("cannot mine from an empty corpus")
    y = np.asarray(labels, dtype=bool)
    fam = np.asarray([str(f) for f in families])
    if len(y) != n or len(fam) != n:
        raise MiningError(
            f"labels/families misaligned with observations: "
            f"{len(y)}/{len(fam)} vs {n}"
        )
    base_specs = tuple(base) if base is not None else builtin_ruleset()

    X = feature_space.encode_block(list(observations)).matrix.astype(bool)
    names, _api_width, _bits = _column_names(feature_space)
    kinds = [feature_space.kind_of_column(c) for c in range(X.shape[1])]

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    mine_idx, hold_idx = perm[::2], perm[1::2]
    Xm, Xh = X[mine_idx], X[hold_idx]
    ym, yh = y[mine_idx], y[hold_idx]
    fm, fh = fam[mine_idx], fam[hold_idx]
    if not (~ym).any() or not (~yh).any():
        raise MiningError("both split halves need benign apps")
    if not ym.any() or not yh.any():
        raise MiningError("both split halves need malicious apps")
    benign_support = Xm[~ym].mean(axis=0)

    mined_families = sorted(set(fam[y]))
    family_summary: dict[str, dict] = {}
    kept: list[MinedRule] = []
    kept_evidence: list[tuple[frozenset, str]] = []
    base_evidence = [_evidence_set(s) for s in base_specs]

    def collides(ev: frozenset, family: str) -> bool:
        for other in base_evidence:
            if _collapses(ev, other, max_overlap):
                return True
        for other, other_family in kept_evidence:
            if other_family == family:
                if _collapses(ev, other, max_overlap):
                    return True
            elif ev == other:
                return True
        return False

    for family in mined_families:
        rows = Xm[fm == family]
        summary = {"rows": int(rows.shape[0]), "candidates": 0, "kept": 0,
                   "fire_coverage": 0.0}
        family_summary[family] = summary
        if rows.shape[0] < min_family_rows:
            continue
        support = rows.mean(axis=0)
        item_lift = support - benign_support
        order = np.argsort(-item_lift, kind="stable")
        items = [
            int(c)
            for c in order[:top_k_items]
            if support[c] >= min_support and item_lift[c] > min_item_lift
        ]
        if not items:
            continue
        # anchor API: the family's most discriminative API column
        api_cols = [c for c in range(X.shape[1]) if kinds[c] == "api"]
        anchor_col = max(api_cols, key=lambda c: (item_lift[c], -c))
        candidates = _frequent_itemsets(rows, items, min_support, max_len)
        summary["candidates"] = len(candidates)
        if not candidates:
            continue

        # Score every candidate on the holdout at AND semantics with
        # one matmul for the whole family.
        C = np.zeros((X.shape[1], len(candidates)), dtype=np.int32)
        sizes = np.zeros(len(candidates), dtype=np.int32)
        for j, itemset in enumerate(candidates):
            C[list(itemset), j] = 1
            sizes[j] = len(itemset)
        match = (Xh.astype(np.int32) @ C) == sizes[np.newaxis, :]
        n_match = match.sum(axis=0)
        fam_mask = fh == family
        p_family = fam_mask.mean()
        with np.errstate(invalid="ignore", divide="ignore"):
            precision = np.where(
                n_match > 0, (match & yh[:, None]).sum(axis=0) / n_match, 0.0
            )
            lift = np.where(
                (n_match > 0) & (p_family > 0),
                ((match & fam_mask[:, None]).sum(axis=0) / np.maximum(n_match, 1))
                / max(p_family, 1e-12),
                0.0,
            )
        survivors = [
            j
            for j in range(len(candidates))
            if n_match[j] >= min_matches
            and precision[j] >= min_precision
            and lift[j] >= min_lift
        ]
        survivors.sort(
            key=lambda j: (
                -precision[j],
                -lift[j],
                -n_match[j],
                candidates[j],
            )
        )

        # Resolve candidates to evidence sets (anchor API attached to
        # API-less itemsets) and drop collapse collisions up front.
        pool: list[tuple[int, tuple[int, ...], frozenset]] = []
        for j in survivors:
            columns = list(candidates[j])
            if not any(kinds[c] == "api" for c in columns):
                columns = columns + [anchor_col]
            ev = frozenset((kinds[c], names[c]) for c in columns)
            if collides(ev, family):
                continue
            if any(ev == p_ev or _collapses(ev, p_ev, max_overlap)
                   for _, _, p_ev in pool):
                continue
            pool.append((j, tuple(columns), ev))

        # Greedy fire-union cover of the holdout family rows, then fill
        # the remaining budget with the top-scored rest.
        fam_rows = np.where(fam_mask)[0]
        Xh_fam = Xh[fam_rows]
        covered = np.zeros(len(fam_rows), dtype=bool)
        chosen: list[tuple[int, tuple[int, ...], frozenset]] = []
        remaining = list(pool)
        while remaining and len(chosen) < max_rules_per_family:
            gains = [
                (_fire_vector(Xh_fam, cols, kinds) & ~covered).sum()
                for _, cols, _ in remaining
            ]
            best = max(range(len(remaining)), key=lambda i: (gains[i], -i))
            if gains[best] == 0:
                break
            entry = remaining.pop(best)
            covered |= _fire_vector(Xh_fam, entry[1], kinds)
            chosen.append(entry)
        for entry in remaining:
            if len(chosen) >= max_rules_per_family:
                break
            chosen.append(entry)

        for idx, (j, columns, ev) in enumerate(chosen):
            apis = tuple(
                names[c] for c in columns if kinds[c] == "api"
            )
            perms = tuple(
                names[c] for c in columns if kinds[c] == "permission"
            )
            intents = tuple(
                names[c] for c in columns if kinds[c] == "intent"
            )
            evidence = " + ".join(
                names[c] for c in candidates[j]
            )
            spec = RuleSpec(
                behavior=f"mined_{family}_{idx:02d}",
                apis=apis,
                description=(
                    f"mined from {family}: frequent evidence "
                    f"{{{evidence}}} "
                    f"(holdout precision {precision[j]:.2f}, "
                    f"family lift {lift[j]:.1f})"
                ),
                permissions=perms,
                intents=intents,
                families=(family,),
                weight=weight,
            )
            fire = _fire_vector(Xh_fam, columns, kinds)
            # Stats are rounded here (not just at serialization) so a
            # save/load round trip compares equal.
            kept.append(
                MinedRule(
                    spec=spec,
                    family=family,
                    support=round(
                        float(rows[:, list(candidates[j])].all(axis=1).mean()),
                        6,
                    ),
                    precision=round(float(precision[j]), 6),
                    lift=round(float(lift[j]), 6),
                    fire_coverage=round(
                        float(fire.mean()) if len(fam_rows) else 0.0, 6
                    ),
                    n_matches=int(n_match[j]),
                )
            )
            kept_evidence.append((ev, family))
        summary["kept"] = len(chosen)
        summary["fire_coverage"] = (
            round(float(covered.mean()), 6) if len(fam_rows) else 0.0
        )

    result = MinedRuleset(
        rules=tuple(kept),
        base=base_specs,
        params={
            "seed": int(seed),
            "min_support": min_support,
            "top_k_items": int(top_k_items),
            "max_len": int(max_len),
            "min_item_lift": min_item_lift,
            "min_matches": int(min_matches),
            "min_precision": min_precision,
            "min_lift": min_lift,
            "max_rules_per_family": int(max_rules_per_family),
            "max_overlap": max_overlap,
            "min_family_rows": int(min_family_rows),
            "weight": weight,
        },
        families=family_summary,
        n_observations=n,
        n_mine=len(mine_idx),
        n_holdout=len(hold_idx),
    )
    issues = lint_ruleset(result.specs, sdk=feature_space.sdk)
    errors = [i for i in issues if i.severity == "error"]
    if errors:
        raise MiningError(
            "mined ruleset failed lint: "
            + "; ".join(str(i) for i in errors)
        )
    if registry is not None:
        registry.inc("rules_mined_total", len(kept))
    return result


def mine_from_corpus(checker, corpus, **kwargs) -> MinedRuleset:
    """Mine from a labeled :class:`~repro.corpus.generator.AppCorpus`.

    Convenience wrapper: observes the corpus with the fitted checker's
    production engine (the same observation path the serving tier
    uses) and mines over its feature space.
    """
    observations = checker.production_engine.observations(corpus)
    return mine_ruleset(
        observations,
        [app.is_malicious for app in corpus],
        [app.family for app in corpus],
        checker.feature_space,
        **kwargs,
    )

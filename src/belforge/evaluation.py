"""Accuracy and 1-distance accuracy over a concept relation graph, with
per-semantic-group breakdowns and a micro-averaged total.
"""

from dataclasses import dataclass, field


@dataclass
class GoldMention:
    mention: str
    gold_cui: str
    group: str


@dataclass
class GroupResult:
    group: str
    count: int
    accuracy: float
    one_dist_accuracy: float


@dataclass
class EvalReport:
    groups: list
    total: GroupResult
    metadata: dict = field(default_factory=dict)


def build_relation_graph(rows):
    """Undirected, relation-type-agnostic adjacency, each CUI to the set of
    CUIs it shares an edge with; duplicates and reversed duplicates
    collapse, self-loops are dropped."""
    adj = {}
    for row in rows:
        if row.cui1 == row.cui2:
            continue
        adj.setdefault(row.cui1, set()).add(row.cui2)
        adj.setdefault(row.cui2, set()).add(row.cui1)
    return adj


def evaluate(predictions, gold, graph, metadata=None):
    """Score predictions against gold mentions.

    ``predictions`` maps mention string -> predicted CUI; a missing
    prediction counts as wrong for both metrics. A prediction is 1-distance
    correct when it equals the gold CUI or shares a relation edge with it
    in ``graph``, an adjacency from build_relation_graph.
    """
    def tally(items):
        exact = 0
        one_dist = 0
        for g in items:
            pred = predictions.get(g.mention)
            if pred == g.gold_cui:
                exact += 1
                one_dist += 1
            elif g.gold_cui in graph.get(pred, ()):
                one_dist += 1
        n = len(items)
        return n, (exact / n if n else 0.0), (one_dist / n if n else 0.0)

    n, acc, od = tally(gold)
    total = GroupResult(group="TOTAL", count=n, accuracy=acc, one_dist_accuracy=od)
    by_group = {}
    for g in gold:
        by_group.setdefault(g.group, []).append(g)
    groups = []
    for name in sorted(by_group):
        gn, gacc, god = tally(by_group[name])
        groups.append(GroupResult(group=name, count=gn, accuracy=gacc,
                                  one_dist_accuracy=god))
    groups.sort(key=lambda r: (-r.count, r.group))
    return EvalReport(groups=groups, total=total, metadata=dict(metadata or {}))


def render_report(report):
    """Aligned text table, groups by descending count, percentages with one
    decimal, total row last."""
    rows = [(r.group, r.count, r.accuracy, r.one_dist_accuracy)
            for r in report.groups]
    rows.append(("TOTAL", report.total.count, report.total.accuracy,
                 report.total.one_dist_accuracy))
    lines = [f"{'Group':<8}{'#':>6}  {'Accuracy':>9}  {'1-dist acc.':>11}"]
    for name, count, acc, od in rows:
        lines.append(f"{name:<8}{count:>6}  {100 * acc:>8.1f}%  {100 * od:>10.1f}%")
    return "\n".join(lines) + "\n"

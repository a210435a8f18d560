from dataclasses import asdict

import numpy as np

from belforge import evaluation as ev
from belforge.cli import _json
from belforge.ontology import RelationRow
from helpers import report_from_json


def gm(mention, cui, group="DISO"):
    return ev.GoldMention(mention=mention, gold_cui=cui, group=group)


def rel(a, b):
    return RelationRow(cui1=a, cui2=b)


class TestRelationGraph:
    def test_undirected_collapse(self):
        g = ev.build_relation_graph([rel("C1", "C2"), rel("C2", "C1")])
        assert g == {"C1": {"C2"}, "C2": {"C1"}}
        assert "C2" in g.get("C1", ()) and "C1" in g.get("C2", ())

    def test_self_loops_dropped(self):
        g = ev.build_relation_graph([rel("C1", "C1")])
        assert g == {}

    def test_unknown_cui_not_connected(self):
        g = ev.build_relation_graph([rel("C1", "C2")])
        assert "C9" not in g.get("C1", ())
        assert "C1" not in g.get("C9", ())


class TestEvaluate:
    def test_narrower_prediction_counts_at_one_distance(self):
        # predicted a narrower concept one relation hop from the gold one
        graph = ev.build_relation_graph([rel("C0150600", "C0010210")])
        report = ev.evaluate({"decubituswond": "C0010210"},
                             [gm("decubituswond", "C0150600")], graph)
        assert report.total.accuracy == 0.0
        assert report.total.one_dist_accuracy == 1.0

    def test_half_exact_three_quarters_one_dist(self):
        graph = ev.build_relation_graph([rel("C3", "C4")])
        gold = [gm("a", "C1"), gm("b", "C2"), gm("c", "C3"), gm("d", "C5")]
        preds = {"a": "C1", "b": "C2", "c": "C4", "d": "C9"}
        report = ev.evaluate(preds, gold, graph)
        assert report.total.accuracy == 0.5
        assert report.total.one_dist_accuracy == 0.75

    def test_missing_prediction_is_wrong(self):
        report = ev.evaluate({}, [gm("a", "C1")], {})
        assert report.total.accuracy == 0.0
        assert report.total.one_dist_accuracy == 0.0

    def test_one_dist_at_least_exact_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            cuis = [f"C{i}" for i in range(8)]
            rows = [rel(cuis[int(rng.integers(8))], cuis[int(rng.integers(8))])
                    for _ in range(int(rng.integers(0, 10)))]
            graph = ev.build_relation_graph(rows)
            gold = [gm(f"m{i}", cuis[int(rng.integers(8))])
                    for i in range(int(rng.integers(1, 12)))]
            preds = {g.mention: cuis[int(rng.integers(8))] for g in gold
                     if rng.random() < 0.8}
            report = ev.evaluate(preds, gold, graph)
            assert report.total.one_dist_accuracy >= report.total.accuracy
            for r in report.groups:
                assert r.one_dist_accuracy >= r.accuracy

    def test_gold_order_invariance(self):
        rng = np.random.default_rng(1)
        gold = [gm(f"m{i}", f"C{i % 3}", group=["DISO", "CHEM"][i % 2])
                for i in range(9)]
        preds = {g.mention: f"C{int(rng.integers(3))}" for g in gold}
        graph = ev.build_relation_graph([rel("C0", "C1")])
        a = ev.evaluate(preds, gold, graph)
        shuffled = [gold[i] for i in rng.permutation(len(gold))]
        b = ev.evaluate(preds, shuffled, graph)
        assert a == b

    def test_edge_addition_raises_one_dist_by_one_over_n(self):
        gold = [gm("a", "C1"), gm("b", "C2"), gm("c", "C3"), gm("d", "C4")]
        preds = {"a": "C9", "b": "C9", "c": "C9", "d": "C9"}
        without = ev.evaluate(preds, gold, {})
        with_edge = ev.evaluate(preds, gold,
                                ev.build_relation_graph([rel("C9", "C2")]))
        assert with_edge.total.one_dist_accuracy \
            == without.total.one_dist_accuracy + 1 / len(gold)

    def test_micro_average_identity(self):
        rng = np.random.default_rng(2)
        groups = ["DISO", "CHEM", "PROC", "ANAT"]
        gold = [gm(f"m{i}", f"C{i % 5}", group=groups[int(rng.integers(4))])
                for i in range(40)]
        preds = {g.mention: f"C{int(rng.integers(5))}" for g in gold}
        report = ev.evaluate(preds, gold, {})
        weighted = sum(r.count * r.accuracy for r in report.groups)
        assert abs(weighted / report.total.count - report.total.accuracy) < 1e-12
        assert sum(r.count for r in report.groups) == report.total.count

    def test_group_rows_sorted_by_count_then_name(self):
        gold = ([gm(f"a{i}", "C1", "DISO") for i in range(3)]
                + [gm(f"b{i}", "C1", "CHEM") for i in range(3)]
                + [gm("c0", "C1", "PROC")])
        report = ev.evaluate({}, gold, {})
        assert [r.group for r in report.groups] == ["CHEM", "DISO", "PROC"]


class TestReportIo:
    def make_report(self):
        gold = [gm("a", "C1", "DISO"), gm("b", "C2", "DISO"), gm("c", "C3", "CHEM")]
        preds = {"a": "C1", "c": "C3"}
        return ev.evaluate(preds, gold, {},
                           metadata={"index": "flat"})

    def test_json_roundtrip(self):
        report = self.make_report()
        assert report_from_json(_json(asdict(report))) == report

    def test_render_golden(self):
        report = self.make_report()
        assert ev.render_report(report) == (
            "Group        #   Accuracy  1-dist acc.\n"
            "DISO         2      50.0%        50.0%\n"
            "CHEM         1     100.0%       100.0%\n"
            "TOTAL        3      66.7%        66.7%\n")

    def test_render_deterministic(self):
        report = self.make_report()
        assert ev.render_report(report) == ev.render_report(report)

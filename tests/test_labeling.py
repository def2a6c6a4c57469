import itertools
import logging
import random

import pytest

from oracles import aggregate_labels, score_label_workers
from roadsense.errors import RowError, SchemaError
from roadsense.labeling import (
    ATTRIBUTES,
    CONSENSUS_CSV_HEADER,
    aggregate,
    flagged_workers,
    parse_labels,
    read_consensus_csv,
    score_workers,
    tally,
    write_consensus_csv,
)

HEADER = ("AssignmentId,WorkerId,Input.segment_id,Answer.potholes,Answer.cracks,"
          "Answer.markings_present,Answer.markings_clear,Answer.litter,Answer.sidewalk")


@pytest.fixture
def batch_csv(tmp_path):
    """A function that writes rows to a label batch file and returns its path."""
    def write(rows):
        path = tmp_path / "batch.csv"
        path.write_text(HEADER + "\n" + "\n".join(",".join(r) for r in rows) + "\n")
        return path
    return write


def verdict(label, attribute):
    return label.verdicts[ATTRIBUTES.index(attribute)]


def record(assignment, worker, segment, potholes="no", cracks="no",
           markings_present="yes", markings_clear="yes", litter="no",
           sidewalk="yes"):
    return (assignment, worker, segment, potholes, cracks, markings_present,
            markings_clear, litter, sidewalk)


class TestParse:
    def test_all_yes_row(self, batch_csv):
        records = parse_labels(batch_csv([record("a1", "w1", "s1", "yes", "yes",
                                                 "yes", "yes", "yes", "yes")]))
        assert len(records) == 1
        r = records[0]
        assert all(getattr(r, a) == "yes" for a in ATTRIBUTES)
        assert r.assignment_id == "a1"
        assert r.worker_id == "w1"
        assert r.segment_id == "s1"

    def test_markings_consistency_coercion(self, batch_csv):
        records = parse_labels(batch_csv([
            record("a1", "w1", "s1", markings_present="no", markings_clear="yes")]))
        assert records[0].markings_clear == "na"

    def test_markings_clear_na_with_markings_present_is_row_error(self, batch_csv):
        path = batch_csv([record("a0", "w0", "s0"),
                          record("a1", "w1", "s1", markings_present="yes",
                                 markings_clear="NA")])
        with pytest.raises(RowError) as exc:
            parse_labels(path)
        assert str(exc.value).startswith(f"{path}: line 3: column Answer.markings_clear:")
        assert exc.value.exit_code == 3

    def test_missing_column_schema_error(self, tmp_path):
        path = tmp_path / "batch.csv"
        path.write_text(HEADER.replace(",Answer.litter", "") + "\n")
        with pytest.raises(SchemaError) as exc:
            parse_labels(path)
        assert "Answer.litter" in str(exc.value)

    def test_unknown_token_row_error(self, batch_csv):
        with pytest.raises(RowError) as exc:
            parse_labels(batch_csv([record("a1", "w1", "s1", potholes="maybe")]))
        assert "line 2" in str(exc.value)

    def test_case_insensitive(self, batch_csv):
        records = parse_labels(batch_csv([record("a1", "w1", "s1", "YES", "No", "yes", "Yes",
                                                 "NO", "NoSidewalk")]))
        assert records[0].potholes == "yes"
        assert records[0].sidewalk_paved == "nosidewalk"


class TestScoreWorkers:
    def test_single_worker_not_flagged(self, batch_csv):
        records = parse_labels(batch_csv([record("a1", "w1", "s1")]))
        scores = score_workers(tally(records))
        assert scores == [type(scores[0])(worker_id="w1", n_labels=6,
                                          agreement=1.0, flagged=False)]

    def test_opposite_worker_flagged(self, batch_csv):
        # 3 unanimous co-workers vs 1 contrarian across 20 segments
        rows = []
        for seg in range(20):
            for w in ("w1", "w2", "w3"):
                rows.append(record(f"a{seg}-{w}", w, f"s{seg}", "yes", "yes",
                                   "yes", "yes", "yes", "yes"))
            rows.append(record(f"a{seg}-bad", "bad", f"s{seg}", "no", "no",
                               "no", "na", "no", "no"))
        scores = {s.worker_id: s for s in score_workers(tally(parse_labels(batch_csv(rows))))}
        assert scores["bad"].agreement == pytest.approx(0.0)
        assert scores["bad"].flagged
        assert scores["w1"].agreement == 1.0
        assert not scores["w1"].flagged
        assert flagged_workers(list(scores.values())) == {"bad"}

    def test_below_overlap_not_flagged(self, batch_csv):
        # worker "e" scores 5 answers (one attribute ties -> unscored), all wrong
        rows = []
        # potholes ties 2v2: others yes,yes,no + e no
        rows.append(record("a1", "w1", "s1", "yes", "yes", "yes", "yes", "yes", "yes"))
        rows.append(record("a2", "w2", "s1", "yes", "yes", "yes", "yes", "yes", "yes"))
        rows.append(record("a3", "w3", "s1", "no", "yes", "yes", "yes", "yes", "yes"))
        rows.append(record("a4", "e", "s1", "no", "no", "no", "na", "no", "no"))
        scores = {s.worker_id: s for s in score_workers(tally(parse_labels(batch_csv(rows))))}
        assert scores["e"].n_labels == 5
        assert scores["e"].agreement == 0.0
        assert not scores["e"].flagged

    def test_hand_counted_partial_agreement(self, batch_csv):
        # worker "m" disagrees on exactly 2 of 6 attributes over 2 segments:
        # 12 scored answers, 8 matching
        rows = []
        for seg in ("s1", "s2"):
            for w in ("w1", "w2"):
                rows.append(record(f"{seg}-{w}", w, seg, "yes", "yes", "yes",
                                   "yes", "yes", "yes"))
            rows.append(record(f"{seg}-m", "m", seg, "no", "no", "yes", "yes",
                               "yes", "yes"))
        scores = {s.worker_id: s for s in score_workers(tally(parse_labels(batch_csv(rows))))}
        assert scores["m"].n_labels == 12
        assert scores["m"].agreement == pytest.approx(8 / 12)


class TestAggregate:
    def test_majority(self, batch_csv):
        rows = [record("a1", "w1", "s1", potholes="yes"),
                record("a2", "w2", "s1", potholes="yes"),
                record("a3", "w3", "s1", potholes="no")]
        out = aggregate(tally(parse_labels(batch_csv(rows))))
        assert verdict(out[0], "potholes") == "yes"
        assert out[0].n_workers == 3

    def test_tie_unresolved(self, batch_csv):
        rows = [record("a1", "w1", "s1", potholes="yes"),
                record("a2", "w2", "s1", potholes="no")]
        out = aggregate(tally(parse_labels(batch_csv(rows))))
        assert verdict(out[0], "potholes") == "unresolved"

    def test_single_label_passthrough(self, batch_csv):
        rows = [record("a1", "w1", "s1", potholes="no")]
        out = aggregate(tally(parse_labels(batch_csv(rows))))
        assert verdict(out[0], "potholes") == "no"
        assert out[0].n_workers == 1

    def test_markings_clear_conditional(self, batch_csv):
        # clear-markings verdict only counts workers who saw markings
        rows = [record("a1", "w1", "s1", markings_present="yes", markings_clear="yes"),
                record("a2", "w2", "s1", markings_present="no", markings_clear="na"),
                record("a3", "w3", "s1", markings_present="no", markings_clear="na")]
        out = aggregate(tally(parse_labels(batch_csv(rows))))
        assert verdict(out[0], "markings_present") == "no"
        assert verdict(out[0], "markings_clear") == "yes"

    def test_markings_clear_na_propagates(self, batch_csv):
        rows = [record("a1", "w1", "s1", markings_present="no", markings_clear="na"),
                record("a2", "w2", "s1", markings_present="no", markings_clear="na")]
        out = aggregate(tally(parse_labels(batch_csv(rows))))
        assert verdict(out[0], "markings_clear") == "na"

    def test_nosidewalk_counts_as_no(self, batch_csv):
        rows = [record("a1", "w1", "s1", sidewalk="nosidewalk"),
                record("a2", "w2", "s1", sidewalk="nosidewalk"),
                record("a3", "w3", "s1", sidewalk="yes")]
        out = aggregate(tally(parse_labels(batch_csv(rows))))
        assert verdict(out[0], "sidewalk_paved") == "no"

    def test_exclusion_drops_worker(self, batch_csv):
        rows = [record("a1", "w1", "s1", potholes="yes"),
                record("a2", "w2", "s1", potholes="yes"),
                record("a3", "bad", "s1", potholes="no")]
        out = aggregate(tally(parse_labels(batch_csv(rows))), excluding={"bad"})
        assert out[0].n_workers == 2
        assert verdict(out[0], "potholes") == "yes"

    def test_exclusion_omits_empty_segments(self, batch_csv):
        rows = [record("a1", "only", "s1"), record("a2", "w2", "s2")]
        out = aggregate(tally(parse_labels(batch_csv(rows))), excluding={"only"})
        assert [c.segment_id for c in out] == ["s2"]

    def test_order_invariance_and_dedupe(self, batch_csv):
        rows = [record("a1", "w1", "s1", potholes="yes"),
                record("a2", "w2", "s1", potholes="no"),
                record("a3", "w3", "s1", potholes="yes"),
                record("a3", "w3", "s1", potholes="yes")]  # duplicate assignment
        records = parse_labels(batch_csv(rows))
        base = aggregate(tally(records))
        assert aggregate(tally(list(reversed(records)))) == base
        assert base[0].n_workers == 3

    def test_exclusion_does_not_touch_unlabeled_segments(self, batch_csv):
        rows = [record("a1", "w1", "s1", potholes="yes"),
                record("a2", "w2", "s2", potholes="no"),
                record("a3", "w3", "s2", potholes="no")]
        with_all = aggregate(tally(parse_labels(batch_csv(rows))))
        without_w1 = aggregate(tally(parse_labels(batch_csv(rows))), excluding={"w1"})
        s2_before = next(c for c in with_all if c.segment_id == "s2")
        s2_after = next(c for c in without_w1 if c.segment_id == "s2")
        assert s2_before == s2_after

    def test_matches_brute_force_tally(self, batch_csv):
        # randomized instances vs an independent exhaustive tally
        rng = random.Random(31)
        binary = ["yes", "no"]
        for _ in range(30):
            workers = [f"w{i}" for i in range(rng.randint(1, 5))]
            segments = [f"s{i}" for i in range(rng.randint(1, 4))]
            rows = []
            for seg, w in itertools.product(segments, workers):
                mp = rng.choice(binary)
                mc = rng.choice(binary) if mp == "yes" else "na"
                rows.append(record(f"{seg}-{w}", w, seg,
                                   rng.choice(binary), rng.choice(binary),
                                   mp, mc, rng.choice(binary),
                                   rng.choice(["yes", "no", "nosidewalk"])))
            records = parse_labels(batch_csv(rows))
            got = {c.segment_id: c for c in aggregate(tally(records))}

            for seg in segments:
                segment_records = [r for r in records if r.segment_id == seg]
                for attr in ATTRIBUTES:
                    votes = []
                    for r in segment_records:
                        v = getattr(r, attr)
                        if attr == "markings_clear":
                            if r.markings_present == "yes":
                                votes.append(v)
                        elif attr == "sidewalk_paved":
                            votes.append("no" if v == "nosidewalk" else v)
                        else:
                            votes.append(v)
                    yes, no = votes.count("yes"), votes.count("no")
                    if yes + no == 0:
                        expect = "na" if attr == "markings_clear" else "unresolved"
                    elif yes > no:
                        expect = "yes"
                    elif no > yes:
                        expect = "no"
                    else:
                        expect = "unresolved"
                    assert verdict(got[seg], attr) == expect, (seg, attr)


def random_batch(rng):
    """Rows of a random batch: ties, duplicate assignment ids, a worker's
    second assignment on a segment, markings_clear answers that parse coerces
    to na, nosidewalk answers, a contrarian worker and a segment that only
    one worker labels."""
    workers = [f"w{i}" for i in range(rng.randint(1, 5))]
    segments = [f"s{i}" for i in range(rng.randint(1, 8))]
    answer = ("yes", "no", "YES", " No ")
    rows = []
    for seg in segments:
        truth = [rng.choice(("yes", "no")) for _ in range(6)]
        for w in rng.sample(workers, rng.randint(1, len(workers))):
            for _ in range(1 if rng.random() < 0.85 else 2):
                cells = [rng.choice(answer) for _ in range(6)]
                if rng.random() < 0.6:
                    cells = list(truth)
                cells[2] = rng.choice(("yes", "no"))
                if cells[2] == "yes":
                    cells[3] = rng.choice(("yes", "no"))
                else:
                    cells[3] = rng.choice(("yes", "no", "na", "NA"))
                cells[5] = rng.choice(("yes", "no", "nosidewalk", "NoSidewalk"))
                rows.append(record(f"{seg}-{w}-{len(rows)}", w, seg, *cells))
        if rng.random() < 0.5:
            rows.append(record(f"{seg}-bad", "bad", seg,
                               *("no" if t == "yes" else "yes" for t in truth[:2]),
                               "no", "na", "yes", "no"))
    rows.append(record("lone", "lone-worker", "s-lone", "yes", "no", "yes", "no",
                       "yes", "no"))
    for _ in range(rng.randint(0, 3)):  # a duplicate assignment id; the first row counts
        dup = list(rng.choice(rows))
        dup[3] = "no" if dup[3] == "yes" else "yes"
        rows.insert(rng.randint(0, len(rows)), tuple(dup))
    return rows


class TestOneTally:
    """score_workers and aggregate over one tally against the functions
    that deduped, grouped and tallied the records once each (oracles)."""

    def test_matches_recounting_oracle(self, caplog, batch_csv):
        rng = random.Random(8)
        n_flagged = n_omitted = n_ties = 0
        for _ in range(300):
            records = parse_labels(batch_csv(random_batch(rng)))
            threshold = rng.choice((0.6, 0.75, 0.9))

            def run(score, consensus, labels):
                caplog.clear()
                with caplog.at_level(logging.WARNING, logger="roadsense.labeling"):
                    scores = score(labels, threshold)
                    excluding = flagged_workers(scores) | (
                        {"lone-worker"} if rng.random() < 0.5 else set())
                    out = consensus(labels, excluding)
                return scores, out, [(r.name, r.levelno, r.getMessage())
                                     for r in caplog.records]

            state = rng.getstate()
            expected = run(score_label_workers, aggregate_labels, records)
            rng.setstate(state)
            assert run(score_workers, aggregate, tally(records)) == expected
            scores, out, logs = expected
            n_flagged += any(s.flagged for s in scores)
            n_omitted += any("lost all labels" in m for _, _, m in logs)
            n_ties += any(v == "unresolved" for c in out for v in c.verdicts)
        assert min(n_flagged, n_omitted, n_ties) >= 20, (n_flagged, n_omitted, n_ties)

    def test_second_assignment_is_a_vote_not_a_worker(self, batch_csv):
        rows = [record("a1", "w1", "s1", potholes="yes"),
                record("a2", "w1", "s1", potholes="yes"),
                record("a3", "w2", "s1", potholes="no")]
        (out,) = aggregate(tally(parse_labels(batch_csv(rows))))
        assert verdict(out, "potholes") == "yes"
        assert out.n_workers == 2


class TestConsensusCsv:
    def test_round_trip(self, tmp_path, batch_csv):
        rows = [record("a1", "w1", "s1", potholes="yes"),
                record("a2", "w2", "s2", markings_present="no", markings_clear="na")]
        labels = aggregate(tally(parse_labels(batch_csv(rows))))
        path = tmp_path / "consensus.csv"
        write_consensus_csv(labels, path)
        assert read_consensus_csv(path) == labels

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("segment_id,potholes\ns1,yes\n")
        with pytest.raises(SchemaError):
            read_consensus_csv(path)

    @pytest.mark.parametrize("column, value", [
        ("potholes", "YES"), ("cracks", "maybe"), ("markings_present", "na"),
        ("markings_clear", "Yes"), ("sidewalk_paved", "nosidewalk"), ("n_workers", "0")])
    def test_value_outside_vocabulary_is_row_error(self, tmp_path, column, value):
        cells = dict(zip(CONSENSUS_CSV_HEADER.split(","),
                         ["s1", "yes", "no", "no", "na", "no", "yes", "1"]))
        path = tmp_path / "consensus.csv"
        path.write_text(f"{CONSENSUS_CSV_HEADER}\n{','.join(cells.values())}\n"
                        f"{','.join({**cells, column: value}.values())}\n")
        with pytest.raises(RowError) as exc:
            read_consensus_csv(path)
        assert str(exc.value).startswith(f"{path}: line 3: column {column}:")
        assert exc.value.exit_code == 3

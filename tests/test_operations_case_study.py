"""Figure 4 operations and Figure 10/11 case study, end to end, on an
in-process cluster and over the gateway (a :class:`RemoteDataSet`)."""

from __future__ import annotations

import functools

import pytest

from repro.core.resolution import Resolution
from repro.engine.cluster import Cluster
from repro.gateway import GatewayServer, RemoteDataSet
from repro.service import ServiceServer
from repro.service.director import dial
from repro.spreadsheet import OPERATIONS, Spreadsheet, run_operation
from repro.spreadsheet.case_study import QUESTIONS, run_case_study
from repro.storage.loader import SOURCES, FlightsSource

SOURCE = FlightsSource(60_000, partitions=8, seed=42)
WORKERS = 2


@pytest.fixture(scope="module")
def open_sheet():
    """A fresh sheet over ``SOURCE`` on either side: an in-process
    cluster, or a root with the same worker count behind a gateway."""
    service = ServiceServer(Cluster(num_workers=WORKERS))
    gateway = GatewayServer(service)
    gateway.start_background()
    try:
        with dial(*gateway.address, timeout=60) as ws:

            def open_sheet(side: str) -> Spreadsheet:
                if side == "local":
                    dataset = Cluster(num_workers=WORKERS).load(SOURCE)
                else:
                    dataset = RemoteDataSet.load(ws, SOURCES.to_json(SOURCE))
                return Spreadsheet(dataset, resolution=Resolution(300, 100), seed=7)

            yield open_sheet
    finally:
        gateway.close()
        service.close()


@pytest.fixture(scope="module")
def studies(open_sheet):
    """The case study on a fresh sheet of each side, run once."""
    return functools.cache(lambda side: run_case_study(open_sheet(side)))


class TestOperations:
    @pytest.fixture(scope="class")
    def sheet(self, open_sheet):
        return open_sheet("local")

    def test_catalogue_matches_figure4(self):
        assert [op.op_id for op in OPERATIONS] == [f"O{i}" for i in range(1, 12)]
        # O4 and O6 never run on cold data (Figure 6 omits them).
        cold_excluded = {op.op_id for op in OPERATIONS if not op.cold_applicable}
        assert cold_excluded == {"O4", "O6"}

    @pytest.mark.parametrize("op_id", [f"O{i}" for i in range(1, 12)])
    def test_operation_runs(self, sheet, op_id):
        records = run_operation(sheet, op_id)
        assert records, op_id
        assert all(r.seconds >= 0 for r in records)
        assert sum(r.bytes_received for r in records) > 0

    def test_operations_use_distinct_vizketch_mixes(self, sheet):
        mark = sheet.log.count
        run_operation(sheet, "O9")
        o9 = sheet.log.since(mark)
        assert any("distinct_count" in a.name for a in o9)


class TestCaseStudy:
    @pytest.fixture
    def results(self, studies):
        return studies("local")

    def test_all_twenty_questions_run(self, results):
        assert len(results) == 20
        assert [r.q_id for r in results] == [q.q_id for q in QUESTIONS]
        assert all(r.answer for r in results)

    def test_action_counts_in_paper_range(self, results):
        # Figure 11: between 1 and 6 actions per question (Q20 investigates).
        for result in results:
            assert 1 <= result.actions <= 8, (result.q_id, result.actions)

    def test_partially_answerable_flagged(self, results):
        flagged = {r.q_id for r in results if not r.fully_answerable}
        assert flagged == {"Q4", "Q6", "Q10", "Q20"}

    def test_q2_answer_is_hawaiian(self, results):
        q2 = next(r for r in results if r.q_id == "Q2")
        assert "HA" in q2.answer

    def test_q9_answer_is_ev(self, results):
        q9 = next(r for r in results if r.q_id == "Q9")
        assert "EV" in q9.answer

    def test_q14_hawaii_carriers_subset(self, results):
        q14 = next(r for r in results if r.q_id == "Q14")
        carriers = set(q14.answer.replace(" ", "").split(","))
        assert "HA" in carriers
        assert carriers <= {"HA", "UA", "AA", "DL", "AS", "WN"}

    def test_q19_finds_both_retired_carriers(self, results):
        q19 = next(r for r in results if r.q_id == "Q19")
        assert "EV" in q19.answer and "MQ" in q19.answer

    def test_q11_longest_flight_plausible(self, results):
        q11 = next(r for r in results if r.q_id == "Q11")
        miles = float(q11.answer.split()[0])
        assert 4000 < miles < 6500

    def test_q20_reports_unanswerable(self, results):
        q20 = next(r for r in results if r.q_id == "Q20")
        assert "cannot" in q20.answer

    def test_machine_time_is_small(self, results):
        # The paper: "most of the time is the operator thinking"; machine
        # time per question is seconds at most even in this reproduction.
        assert max(r.seconds for r in results) < 30


class TestRemoteOperations(TestOperations):
    @pytest.fixture(scope="class")
    def sheet(self, open_sheet):
        return open_sheet("remote")


class TestRemoteCaseStudy(TestCaseStudy):
    @pytest.fixture
    def results(self, studies):
        return studies("remote")

    def test_answers_and_action_counts_equal_in_process(self, studies):
        def outcome(side):
            return [(r.q_id, r.answer, r.actions) for r in studies(side)]

        assert outcome("remote") == outcome("local")

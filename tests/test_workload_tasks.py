"""Tests for the evaluation tasks and their sample streams."""

import pytest

from repro.workload.tasks import Task, standard_tasks, task_by_name
from repro.workload.circuit_board import make_board


class TestStandardTasks:
    def test_four_tasks_exist(self):
        tasks = standard_tasks()
        assert [task.name for task in tasks] == ["A1", "A2", "B1", "B2"]

    def test_request_counts_match_paper(self):
        counts = {task.name: task.num_requests for task in standard_tasks()}
        assert counts == {"A1": 2500, "A2": 3500, "B1": 2500, "B2": 3500}

    def test_arrival_interval_is_4ms(self):
        assert all(task.arrival_interval_ms == 4.0 for task in standard_tasks())

    def test_boards_match_task_names(self):
        tasks = {task.name: task for task in standard_tasks()}
        assert len(tasks["A1"].board().components) == 352
        assert len(tasks["B1"].board().components) == 342

    def test_task_by_name(self):
        assert task_by_name("a2").num_requests == 3500
        with pytest.raises(KeyError):
            task_by_name("Z9")

    def test_stream_has_requested_size(self):
        task = task_by_name("A1")
        stream = task.request_stream(num_requests=200)
        assert len(stream) == 200
        assert stream.arrival_interval_ms == 4.0

    def test_sample_stream_shares_active_subset(self):
        task = task_by_name("A1")
        board = task.board()
        model = task.model(board)
        sample = task.sample_stream(300, board=board, model=model)
        full = task.request_stream(board=board, model=model, num_requests=900)
        assert set(r.category for r in sample) <= set(r.category for r in full)

    def test_invalid_task_parameters_rejected(self):
        with pytest.raises(ValueError):
            Task(name="", board_factory=make_board_factory(), num_requests=10)
        with pytest.raises(ValueError):
            Task(name="X", board_factory=make_board_factory(), num_requests=0)
        with pytest.raises(ValueError):
            Task(name="X", board_factory=make_board_factory(), num_requests=10, arrival_interval_ms=0)
        with pytest.raises(ValueError):
            Task(name="X", board_factory=make_board_factory(), num_requests=10, active_fraction=0)


def make_board_factory():
    return lambda: make_board("X", component_types=10, detection_groups=2)


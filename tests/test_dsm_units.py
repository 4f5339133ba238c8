"""Unit + property tests for DSM building blocks: states, diffs, notices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsm import (
    PageState,
    is_valid_transition,
    make_twin,
    compute_diff,
    apply_diff,
    diff_nbytes,
    WriteNotice,
    NoticeLog,
)
from repro.dsm.states import VALID_TRANSITIONS
from repro.dsm.writenotice import merge_notices
from repro.dsm.diffs import RUN_HEADER_BYTES


# ------------------------------------------------------------- states
def test_figure5_transitions_present():
    # the arcs of Figure 5
    assert is_valid_transition(PageState.INVALID, PageState.TRANSIENT, "fault")
    assert is_valid_transition(PageState.TRANSIENT, PageState.BLOCKED, "concurrent-fault")
    assert is_valid_transition(PageState.TRANSIENT, PageState.READ_ONLY, "update-done")
    assert is_valid_transition(PageState.BLOCKED, PageState.READ_ONLY, "update-done")
    assert is_valid_transition(PageState.READ_ONLY, PageState.DIRTY, "write-fault")
    assert is_valid_transition(PageState.DIRTY, PageState.READ_ONLY, "flush")
    assert is_valid_transition(PageState.READ_ONLY, PageState.INVALID, "invalidate")
    assert is_valid_transition(PageState.DIRTY, PageState.INVALID, "invalidate")


def test_forbidden_transitions_absent():
    # an INVALID page can never become valid without passing TRANSIENT
    assert not is_valid_transition(PageState.INVALID, PageState.READ_ONLY, "update-done")
    assert not is_valid_transition(PageState.INVALID, PageState.DIRTY, "write-fault")
    # a blocked page cannot be invalidated mid-update
    assert not is_valid_transition(PageState.BLOCKED, PageState.INVALID, "invalidate")
    assert not is_valid_transition(PageState.TRANSIENT, PageState.INVALID, "invalidate")


def test_transition_table_only_uses_known_states():
    for src, dst, _reason in VALID_TRANSITIONS:
        assert isinstance(src, PageState) and isinstance(dst, PageState)


# ------------------------------------------------------------- diffs
def test_diff_empty_when_unchanged():
    page = (np.arange(4096) % 256).astype(np.uint8)
    twin = make_twin(page)
    assert compute_diff(twin, page) == []


def test_diff_captures_single_run():
    page = np.zeros(4096, dtype=np.uint8)
    twin = make_twin(page)
    page[100:108] = 42
    diff = compute_diff(twin, page)
    assert len(diff) == 1
    off, data = diff[0]
    assert off == 100 and data == bytes([42] * 8)


def test_diff_splits_disjoint_runs():
    page = np.zeros(4096, dtype=np.uint8)
    twin = make_twin(page)
    page[0] = 1
    page[4095] = 2
    diff = compute_diff(twin, page)
    assert [off for off, _ in diff] == [0, 4095]


def test_apply_diff_merges_into_home_copy():
    home = np.zeros(4096, dtype=np.uint8)
    home[50] = 99  # home's own concurrent change at a different offset
    diff = [(100, b"\x07\x07")]
    apply_diff(home, diff)
    assert home[100] == 7 and home[101] == 7
    assert home[50] == 99  # untouched


def test_apply_diff_bounds_checked():
    page = np.zeros(16, dtype=np.uint8)
    with pytest.raises(ValueError):
        apply_diff(page, [(15, b"\x01\x02")])


def test_diff_nbytes_counts_headers():
    diff = [(0, b"abc"), (100, b"de")]
    assert diff_nbytes(diff) == 2 * RUN_HEADER_BYTES + 5


def test_diff_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        compute_diff(np.zeros(8, dtype=np.uint8), np.zeros(16, dtype=np.uint8))


@settings(max_examples=60, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 4095), st.integers(0, 255)), min_size=0, max_size=50
    )
)
def test_diff_roundtrip_property(writes):
    """apply(twin, diff(twin, page)) == page for any write pattern."""
    rng = np.random.default_rng(0)
    original = rng.integers(0, 256, 4096, dtype=np.uint8)
    page = original.copy()
    twin = make_twin(page)
    for off, val in writes:
        page[off] = val
    diff = compute_diff(twin, page)
    reconstructed = original.copy()
    apply_diff(reconstructed, diff)
    assert np.array_equal(reconstructed, page)


@settings(max_examples=40, deadline=None)
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 4000), st.integers(1, 64)), min_size=1, max_size=20
    )
)
def test_diff_size_bounded_by_changes(writes):
    """A diff never ships more payload bytes than were changed."""
    page = np.zeros(4096, dtype=np.uint8)
    twin = make_twin(page)
    touched = set()
    for off, ln in writes:
        page[off : off + ln] = 200
        touched.update(range(off, min(off + ln, 4096)))
    diff = compute_diff(twin, page)
    payload = sum(len(d) for _o, d in diff)
    assert payload == len({i for i in touched if page[i] != 0})


# ------------------------------------------------------------- write notices
def test_notice_log_cursor_semantics():
    log = NoticeLog()
    log.append([WriteNotice(1, 0, 1), WriteNotice(2, 0, 1)])
    first = log.unseen_by(consumer=1)
    assert [w.page for w in first] == [1, 2]
    assert log.unseen_by(consumer=1) == []
    log.append([WriteNotice(3, 2, 2)])
    assert [w.page for w in log.unseen_by(consumer=1)] == [3]
    # a different consumer sees everything from the start
    assert [w.page for w in log.unseen_by(consumer=5)] == [1, 2, 3]


def test_merge_notices_groups_writers():
    merged = merge_notices(
        {
            0: [WriteNotice(10, 0, 1), WriteNotice(11, 0, 1)],
            1: [WriteNotice(10, 1, 1)],
            2: [],
        }
    )
    assert merged == {10: {0, 1}, 11: {0}}

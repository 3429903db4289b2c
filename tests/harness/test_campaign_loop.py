"""Tests for the one journaled campaign loop and campaign identities.

The contract (see ``repro/harness/checkpoint.py``): every campaign runs
through :func:`journaled_map`, which replays journaled cells, journals
fresh ones and reports a gap by its *cell* index; and every campaign's
store fingerprint and cell keys come from one identity dict that holds
each argument of its sweep except the execution ones.  The scaling
figures fig01-fig17 journal through the same loop, keyed by the same
kind of identity.
"""

import inspect

import pytest

from repro.harness.checkpoint import (EXECUTION_PARAMS, CheckpointError,
                                      CheckpointStore, campaign_identity,
                                      journaled_map)
from repro.harness.figures import (fig01_wordcount_weak,
                                   fig02_wordcount_strong, fig04_grep_weak,
                                   scaling_identity)
from repro.resilience.sweep import (ResilienceCell, campaign_fingerprint,
                                    default_workloads, resilience_sweep)
from repro.scheduler.jobs import JobTemplate
from repro.scheduler.policies import QueueConfig
from repro.scheduler.sweep import (default_templates,
                                   tenancy_campaign_fingerprint,
                                   tenancy_sweep)
from repro.streaming.sweep import (degradation_campaign_fingerprint,
                                   degradation_sweep,
                                   streaming_campaign_fingerprint,
                                   streaming_sweep)
from repro.validation.digest import (digest_payload, resilience_payload,
                                     scaling_payload)


def _square_or_fail(x):
    if x < 0:
        raise ValueError(f"negative {x}")
    return {"x": x * x}


def test_journaled_map_replays_saves_and_numbers_gaps_by_cell(tmp_path):
    with CheckpointStore(tmp_path / "s", "fp") as store:
        store.save("a", {"x": 99})          # journaled: replayed as-is
        out = journaled_map(_square_or_fail, [(1,), (-2,), (3,)],
                            ["a", "b", "c"], store, jobs=1, retries=0)
        assert out[0] == ({"x": 99}, None)
        assert out[2] == ({"x": 9}, None)
        payload, gap = out[1]
        assert payload is None
        # Cell 1 is the first *pending* task, but keeps its cell number.
        assert gap.startswith("task #1 _square_or_fail(-2,): exception "
                              "after 1 attempt(s)")
        assert "c" in store and "b" not in store  # gaps are not journaled


def test_journaled_map_without_a_store():
    out = journaled_map(_square_or_fail, [(2,), (-1,)], ["a", "b"],
                        jobs=1, retries=0)
    assert out[0] == ({"x": 4}, None)
    assert out[1][0] is None and out[1][1].startswith("task #1 ")


def test_resumed_gap_reproduces_the_uninterrupted_digest(tmp_path):
    # spark/pagerank at rate 1.0 fails its second trial in the harness
    # (a known simulator defect), so this campaign has one gap cell.
    kwargs = dict(
        workloads=[w for w in default_workloads(8) if w[0] == "pagerank"],
        engines=("spark",), rates=(1.0,), trials=2, nodes=8, seed=0,
        jobs=1)
    plain = resilience_sweep(**kwargs)
    assert [g.trial for g in plain.gaps] == [1]
    with CheckpointStore(tmp_path / "s", "fp") as store:
        resilience_sweep(**kwargs, checkpoint=store)
    with CheckpointStore(tmp_path / "s", "fp", resume=True) as store:
        assert len(store) == 1              # only the good trial
        resumed = resilience_sweep(**kwargs, checkpoint=store)
    assert resumed.gaps[0].gap_detail == plain.gaps[0].gap_detail
    assert (digest_payload(resilience_payload(resumed))
            == digest_payload(resilience_payload(plain)))


# ----------------------------------------------------------------------
# fingerprints cover every identity parameter
# ----------------------------------------------------------------------
#: One changed value per identity parameter of each sweep.
CHANGES = {
    "fig19": (resilience_sweep, campaign_fingerprint, {
        "workloads": default_workloads(8)[:2],
        "engines": ("spark",), "rates": (0.0, 1.0), "trials": 2,
        "nodes": 4, "seed": 1, "stragglers": 1, "figure_id": "fig19b"}),
    "fig20": (streaming_sweep, streaming_campaign_fingerprint, {
        "figure_id": "fig21", "engines": ("flink",),
        "arrival_kinds": ("mmpp",), "load_fractions": (0.5,),
        "checkpoint_intervals": (2.0,), "nodes": 4, "seed": 1,
        "duration": 12.0, "batch_interval": 2.0, "crash_at": 5.0}),
    "fig22": (degradation_sweep, degradation_campaign_fingerprint, {
        "figure_id": "fig22b", "engines": ("spark",),
        "load_multiples": (1.0,), "fault_rates": (0.5,),
        "policies": ("none",), "nodes": 4, "seed": 1, "duration": 12.0,
        "batch_interval": 2.0}),
    "fig23": (tenancy_sweep, tenancy_campaign_fingerprint, {
        "policies": ("fifo",), "loads": (0.5,), "trials": 2, "nodes": 4,
        "seed": 1, "jobs_target": 6, "crash_rate": 0.5,
        "templates": default_templates(8)[:2],
        "queues": (QueueConfig("prod"), QueueConfig("batch", quota=2)),
        "figure_id": "fig23b"}),
    # ``repro figure fig02``: the scaling figures' identity.
    "fig02": (fig02_wordcount_strong,
              lambda **params: scaling_identity(
                  "fig02", fig02_wordcount_strong, params),
              {"trials": 2, "seed": 1, "gb_per_node": (24,), "nodes": 4}),
}


@pytest.mark.parametrize("campaign", sorted(CHANGES))
def test_fingerprint_changes_with_every_identity_parameter(campaign):
    sweep, fingerprint, changes = CHANGES[campaign]
    # Every non-execution argument of the sweep has a change listed, so
    # a parameter added later cannot be silently left out.
    assert set(campaign_identity(sweep, {})) == set(changes)
    assert not set(changes) & EXECUTION_PARAMS
    base = digest_payload(fingerprint())
    for name, value in changes.items():
        assert digest_payload(fingerprint(**{name: value})) != base, name


@pytest.mark.parametrize("campaign", sorted(CHANGES))
def test_execution_parameters_are_not_identity(campaign):
    sweep, fingerprint, _changes = CHANGES[campaign]
    execution = dict(strict=True, jobs=2, timeout=9.0, retries=3,
                     backoff=0.1, checkpoint=None)
    accepted = inspect.signature(sweep).parameters
    assert fingerprint(**{name: value for name, value in execution.items()
                          if name in accepted}) == fingerprint()


def test_scaling_fingerprint_names_its_figure():
    # fig01 and fig04 take the same arguments with the same defaults.
    assert (digest_payload(scaling_identity("fig01", fig01_wordcount_weak,
                                            {}))
            != digest_payload(scaling_identity("fig04", fig04_grep_weak,
                                               {})))


def test_tenancy_fingerprint_holds_template_contents():
    wider = [t.payload() for t in default_templates(8)]
    wider[0]["width"] += 1
    changed = tenancy_campaign_fingerprint(
        templates=[JobTemplate(**p) for p in wider])
    assert (digest_payload(changed)
            != digest_payload(tenancy_campaign_fingerprint()))


# ----------------------------------------------------------------------
# stores written before the identities were unified
# ----------------------------------------------------------------------
#: What ``repro figure fig19`` (three trials) pinned before.
PRE_CHANGE_FIG19 = {
    "figure_id": "fig19", "engines": ["flink", "spark"],
    "workloads": ["wordcount", "grep", "terasort", "kmeans", "pagerank",
                  "connected-components"],
    "rates": [0.0, 0.5, 1.0, 2.0], "trials": 3, "nodes": 8, "seed": 0,
    "stragglers": 0,
}


def test_pre_change_fig19_store_still_resumes(tmp_path):
    CheckpointStore(tmp_path / "s", PRE_CHANGE_FIG19).close()
    with CheckpointStore(tmp_path / "s", campaign_fingerprint(trials=3),
                         resume=True) as store:
        assert len(store) == 0


def test_pre_change_records_are_never_mixed_in(tmp_path):
    kwargs = dict(
        workloads=[w for w in default_workloads(8) if w[0] == "wordcount"],
        engines=("spark",), rates=(0.0,), jobs=1)
    plain = resilience_sweep(**kwargs)
    old_fp = dict(PRE_CHANGE_FIG19, engines=["spark"],
                  workloads=["wordcount"], rates=[0.0], trials=1)
    assert digest_payload(old_fp) == digest_payload(
        campaign_fingerprint(**kwargs))
    # A record under the old per-cell key, with a wrong result in it.
    old_key = digest_payload({
        "figure_id": "fig19", "engine": "spark", "workload": "wordcount",
        "rate": 0.0, "trial": 0, "seed": 0, "nodes": 8, "stragglers": 0})
    poisoned = ResilienceCell(engine="spark", workload="wordcount",
                              nodes=8, rate=0.0, trial=0, seed=0,
                              success=True, baseline_seconds=1.0,
                              faulted_seconds=1e9).payload()
    with CheckpointStore(tmp_path / "s", old_fp) as store:
        store.save(old_key, poisoned)
    try:
        with CheckpointStore(tmp_path / "s", campaign_fingerprint(**kwargs),
                             resume=True) as store:
            resumed = resilience_sweep(**kwargs, checkpoint=store)
    except CheckpointError:
        return  # refusing the store is the other acceptable outcome
    assert (digest_payload(resilience_payload(resumed))
            == digest_payload(resilience_payload(plain)))


def test_pre_change_tenancy_store_is_refused(tmp_path):
    old_fp = {"figure_id": "fig23", "policies": ["fifo", "fair",
                                                 "capacity"],
              "loads": [0.3, 0.6, 0.9], "trials": 3, "nodes": 8,
              "seed": 0, "crash_rate": 0.0, "jobs_target": 12,
              "templates": [t.name for t in default_templates(8)]}
    CheckpointStore(tmp_path / "s", old_fp).close()
    with pytest.raises(CheckpointError, match="different campaign"):
        CheckpointStore(tmp_path / "s", tenancy_campaign_fingerprint(
            trials=3), resume=True)


#: What ``repro figure fig02 --trials 1 --checkpoint`` pinned before
#: the scaling figures had a campaign identity.
PRE_CHANGE_FIG02 = {"figure_id": "fig02", "trials": 1, "seed": 0}


def test_scaling_cell_keys_cover_every_figure_argument(tmp_path):
    # The old data-point keys left out ``nodes``: a 4-node resume of a
    # 2-node store replayed the 2-node records as its own.
    kwargs = dict(trials=1, gb_per_node=(1,))
    plain = fig02_wordcount_strong(**kwargs, nodes=4)
    with CheckpointStore(tmp_path / "s", PRE_CHANGE_FIG02) as store:
        fig02_wordcount_strong(**kwargs, nodes=2, checkpoint=store)
    with CheckpointStore(tmp_path / "s", PRE_CHANGE_FIG02,
                         resume=True) as store:
        resumed = fig02_wordcount_strong(**kwargs, nodes=4,
                                         checkpoint=store)
    assert resumed.trials_raw["flink"][0].nodes == 4
    assert (digest_payload(scaling_payload(resumed))
            == digest_payload(scaling_payload(plain)))


def test_pre_change_scaling_store_is_refused(tmp_path):
    CheckpointStore(tmp_path / "s", PRE_CHANGE_FIG02).close()
    with pytest.raises(CheckpointError, match="different campaign"):
        CheckpointStore(tmp_path / "s", scaling_identity(
            "fig02", fig02_wordcount_strong, {"trials": 1, "seed": 0}),
            resume=True)

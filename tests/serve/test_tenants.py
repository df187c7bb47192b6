"""Tenant quotas, admission control, and stride fairness."""

import pytest

from repro.serve.tenants import (
    AdmissionError,
    StridePicker,
    TenantQuota,
    TenantState,
)


def _state(name, weight=1.0, max_pending=64, max_queries=None):
    return TenantState(
        quota=TenantQuota(
            name=name, weight=weight, max_pending=max_pending,
            max_queries=max_queries,
        )
    )


class TestQuotaValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            TenantQuota(name="")

    @pytest.mark.parametrize("weight", [0.0, -1.0])
    def test_nonpositive_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="weight"):
            TenantQuota(name="t", weight=weight)

    def test_nonpositive_max_pending_rejected(self):
        with pytest.raises(ValueError, match="max_pending"):
            TenantQuota(name="t", max_pending=0)

    def test_negative_max_queries_rejected(self):
        with pytest.raises(ValueError, match="max_queries"):
            TenantQuota(name="t", max_queries=-1)


class TestAdmission:
    def test_full_queue_rejects_with_backpressure_reason(self):
        tenant = _state("t", max_pending=2)
        tenant.queue.extend(["r1", "r2"])
        with pytest.raises(AdmissionError) as exc:
            tenant.admit(1)
        assert exc.value.reason == "queue-full"
        assert exc.value.tenant == "t"
        assert tenant.rejected == 1

    def test_lifetime_quota_rejects_in_queries_not_requests(self):
        tenant = _state("t", max_queries=5)
        tenant.queries_admitted = 3
        tenant.admit(2)  # 3 + 2 == 5: exactly at quota is fine
        with pytest.raises(AdmissionError) as exc:
            tenant.admit(3)
        assert exc.value.reason == "quota"

    def test_admit_under_limits_is_silent(self):
        tenant = _state("t", max_pending=2, max_queries=10)
        tenant.admit(4)
        assert tenant.rejected == 0


class TestStridePicker:
    def test_duplicate_tenant_rejected(self):
        picker = StridePicker([_state("a")])
        with pytest.raises(ValueError, match="duplicate"):
            picker.add(_state("a"))

    def test_pick_returns_none_without_backlog(self):
        picker = StridePicker([_state("a"), _state("b")])
        assert picker.pick() is None

    def test_equal_weights_alternate_deterministically(self):
        a, b = _state("a"), _state("b")
        picker = StridePicker([a, b])
        a.queue.extend(range(4))
        b.queue.extend(range(4))
        order = []
        for _ in range(8):
            chosen = picker.pick()
            chosen.queue.popleft()
            order.append(chosen.quota.name)
        # Ties break by name, so the trace is exactly reproducible.
        assert order == ["a", "b"] * 4

    def test_weighted_shares_are_proportional(self):
        heavy, light = _state("heavy", weight=2.0), _state("light")
        picker = StridePicker([heavy, light])
        heavy.queue.extend(range(100))
        light.queue.extend(range(100))
        picks = {"heavy": 0, "light": 0}
        for _ in range(30):
            chosen = picker.pick()
            chosen.queue.popleft()
            picks[chosen.quota.name] += 1
        assert picks == {"heavy": 20, "light": 10}

    def test_exhausted_tenant_is_skipped(self):
        a, b = _state("a"), _state("b")
        picker = StridePicker([a, b])
        a.queue.append("only")
        assert picker.pick() is a
        a.queue.popleft()
        b.queue.append("next")
        assert picker.pick() is b

    def test_late_joiner_starts_at_the_pass_floor(self):
        a = _state("a")
        picker = StridePicker([a])
        a.queue.extend(range(5))
        for _ in range(5):
            picker.pick().queue.popleft()
        late = _state("late")
        picker.add(late)
        # Joining at pass 0 would let the newcomer monopolize pick()
        # until it caught up with a's accumulated strides.
        assert late.pass_value == a.pass_value

    @staticmethod
    def _split(picker, picks):
        counts = {}
        for _ in range(picks):
            chosen = picker.pick()
            chosen.queue.popleft()
            counts[chosen.quota.name] = counts.get(chosen.quota.name, 0) + 1
        return counts

    def test_tenant_back_from_idle_resumes_at_the_latest_pick(self):
        a, b = _state("a"), _state("b")
        picker = StridePicker([a, b])
        picker.enqueue(a, "once")
        assert picker.pick() is a
        a.queue.popleft()  # a goes idle ...
        for j in range(1200):
            picker.enqueue(b, j)
        assert self._split(picker, 1000) == {"b": 1000}  # ... for 1000 picks
        for j in range(200):
            picker.enqueue(a, j)  # refills from empty
        # Resuming at its stale pass, a would take all 200 picks.
        assert self._split(picker, 200) == {"a": 100, "b": 100}

    def test_newcomer_beside_an_idle_tenant_cannot_monopolize(self):
        idle, busy = _state("idle"), _state("busy")
        picker = StridePicker([idle, busy])
        for j in range(1200):
            picker.enqueue(busy, j)
        assert self._split(picker, 1000) == {"busy": 1000}
        late = _state("late")
        picker.add(late)  # joins while idle still sits at pass 0
        for j in range(200):
            picker.enqueue(late, j)
        assert self._split(picker, 200) == {"busy": 100, "late": 100}

    def test_backlog_counts_queued_requests(self):
        a, b = _state("a"), _state("b")
        picker = StridePicker([a, b])
        a.queue.extend(range(3))
        b.queue.extend(range(2))
        assert picker.backlog == 5

import json

import pytest

from cyclolog import (
    CapExceeded,
    Context,
    check_annulus_image,
    check_full_image_and_index,
    check_residue_field,
    check_square_iso,
    run_all,
)


class TestAnnulusImage:
    @pytest.mark.parametrize(
        "p,n,units,images,fiber",
        [(3, 5, 54, 27, 2), (5, 4, 100, 25, 4), (7, 4, 294, 49, 6), (11, 5, 13310, 1331, 10)],
    )
    def test_counts(self, p, n, units, images, fiber):
        result = check_annulus_image(Context(p, n))
        assert result.passed
        assert result.counts["units"] == units
        assert result.counts["images"] == images == result.counts["expected_images"]
        assert result.counts["min_fiber"] == result.counts["max_fiber"] == fiber
        assert result.counts["outside_m_squared"] == 0

    def test_fiber_count_identity(self):
        # enumerated units / fiber size must equal the number of images
        result = check_annulus_image(Context(5, 4))
        c = result.counts
        assert c["units"] // (5 - 1) == c["images"]

    def test_cap(self):
        with pytest.raises(CapExceeded):
            check_annulus_image(Context(3, 8), cap=100)


class TestSquareIso:
    @pytest.mark.parametrize("p,n,count", [(3, 5, 27), (5, 4, 25), (7, 4, 49), (11, 5, 1331)])
    def test_bijection_counts(self, p, n, count):
        result = check_square_iso(Context(p, n))
        assert result.passed
        assert result.counts["units"] == count
        assert result.counts["images"] == count
        assert result.counts["roundtrip_failures"] == 0

    def test_cap(self):
        with pytest.raises(CapExceeded):
            check_square_iso(Context(5, 6), cap=10)


class TestFullImageAndIndex:
    @pytest.mark.parametrize("p,n", [(3, 5), (5, 4), (7, 4)])
    def test_index_is_p(self, p, n):
        result = check_full_image_and_index(Context(p, n))
        assert result.passed
        assert result.counts["index"] == p
        assert result.counts["union_images"] == p ** (n - 2)
        assert result.counts["maximal_ideal_size"] == p ** (n - 1)
        assert result.counts["closure_failures"] == 0


class TestResidueField:
    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_cosets(self, p):
        result = check_residue_field(Context(p, 4))
        assert result.passed
        assert result.counts["cosets"] == p


class TestRunAll:
    def test_all_pass_p3(self):
        report = run_all(Context(3, 6), seed=0)
        assert report.all_passed
        assert report.p == 3 and report.precision == 6

    def test_all_pass_p5(self):
        report = run_all(Context(5, 5), seed=0)
        assert report.all_passed

    def test_check_names_unique(self):
        report = run_all(Context(3, 6), seed=0)
        names = [c.name for c in report.checks]
        assert len(names) == len(set(names))

    def test_deterministic_for_fixed_seed(self):
        a = run_all(Context(3, 6), seed=42).to_json()
        b = run_all(Context(3, 6), seed=42).to_json()
        assert a == b

    def test_cap_skip_marker_instead_of_crash(self):
        report = run_all(Context(3, 8), cap=100)
        skipped = [c for c in report.checks if c.counts.get("skipped")]
        assert skipped, "expected cap-limited checks to be marked skipped"
        for c in skipped:
            assert not c.passed
            assert c.counts["cap"] == 100
            assert c.witnesses
        # the cheap checks still ran
        assert any(c.passed for c in report.checks)
        assert not report.all_passed

    def test_p2_rejected_at_context(self):
        with pytest.raises(ValueError):
            Context(2, 6)

    def test_json_schema(self):
        report = run_all(Context(3, 6), seed=0)
        data = json.loads(report.to_json())
        assert set(data.keys()) == {"p", "precision", "checks"}
        assert isinstance(data["p"], int)
        assert isinstance(data["precision"], int)
        assert isinstance(data["checks"], list)
        for check in data["checks"]:
            assert set(check.keys()) == {"name", "passed", "counts", "witnesses"}
            assert isinstance(check["name"], str)
            assert isinstance(check["passed"], bool)
            assert isinstance(check["counts"], dict)
            assert all(isinstance(v, int) for v in check["counts"].values())
            assert isinstance(check["witnesses"], list)
            assert all(isinstance(w, str) for w in check["witnesses"])

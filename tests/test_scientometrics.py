"""Citation-table analytics against the published listing statistics."""

import math

import pytest

from citechain import scientometrics as sm
from citechain.scientometrics import AuthorRecord

# column 5 of the three ranked listings, as published (2 dp); row 9 of
# physics is printed as 5.50 though the full ratio is 5.5051, so agreement
# is asserted as |computed - published| < 0.01 rather than re-rounding
PUBLISHED_KAPPA = {
    "mathematics": (6.15, 16.92, 7.36, 33.89, 29.20, 16.31, 24.50, 36.86, 8.05, 14.27),
    "biostatistics": (9.29, 17.32, 5.85, 4.69, 6.97, 13.07, 13.67, 9.67, 5.54, 8.16),
    "physics": (7.70, 5.21, 6.01, 5.47, 4.88, 5.36, 10.49, 5.50, 5.50, 5.04),
}


class TestAuthorRecord:
    def test_valid(self):
        r = AuthorRecord(1, 100, 10, 50)
        assert r.h_index == 10

    def test_h_square_invariant_names_rank(self):
        with pytest.raises(ValueError, match="rank 3"):
            AuthorRecord(3, 99, 10, 50)

    def test_max_cited_invariant(self):
        with pytest.raises(ValueError, match="max_paper_citations"):
            AuthorRecord(1, 100, 10, 101)

    def test_nonnegative_fields(self):
        with pytest.raises(ValueError):
            AuthorRecord(0, 100, 10, 50)
        with pytest.raises(ValueError):
            AuthorRecord(1, -1, 0, 0)

    def test_h_zero_permitted(self):
        AuthorRecord(1, 0, 0, 0)


class TestFixtures:
    def test_names(self):
        assert sm.FIXTURE_NAMES == ("biostatistics", "mathematics", "physics")

    def test_known_rows(self):
        math_rows = sm.load_dataset("mathematics")
        assert (
            math_rows[0].rank,
            math_rows[0].total_citations,
            math_rows[0].h_index,
            math_rows[0].max_paper_citations,
        ) == (1, 448557, 270, 28303)
        phys_rows = sm.load_dataset("physics")
        assert (
            phys_rows[6].rank,
            phys_rows[6].total_citations,
            phys_rows[6].h_index,
            phys_rows[6].max_paper_citations,
        ) == (7, 217495, 144, 35746)

    def test_shapes_and_invariants(self):
        for name in sm.FIXTURE_NAMES:
            rows = sm.load_dataset(name)
            assert len(rows) == 10
            assert [r.rank for r in rows] == list(range(1, 11))
            # AuthorRecord construction has already enforced h^2 <= N

    @pytest.mark.parametrize("name", sorted(PUBLISHED_KAPPA))
    def test_kappa_column_reproduces_published(self, name):
        rows = sm.load_dataset(name)
        for record, published in zip(rows, PUBLISHED_KAPPA[name]):
            assert abs(sm.kappa(record) - published) < 0.01, record

    def test_top_two_citation_ratios(self):
        math_rows = sm.load_dataset("mathematics")
        ratio = math_rows[0].total_citations / math_rows[1].total_citations
        assert ratio == pytest.approx(2.76, abs=0.01)
        bio_rows = sm.load_dataset("biostatistics")
        ratio = bio_rows[0].total_citations / bio_rows[1].total_citations
        assert ratio == pytest.approx(1.59, abs=0.01)


class TestCsvLoading:
    HEADER = "rank,total_citations,h_index,max_paper_citations"

    def write(self, tmp_path, body):
        path = tmp_path / "data.csv"
        path.write_text(body, encoding="utf-8")
        return path

    def test_round_trip(self, tmp_path):
        rows = sm.load_dataset("physics")
        body = self.HEADER + "\n" + "\n".join(
            f"{r.rank},{r.total_citations},{r.h_index},{r.max_paper_citations}"
            for r in rows
        )
        loaded = sm.load_dataset(self.write(tmp_path, body))
        assert loaded == rows

    def test_crlf_and_trailing_newline(self, tmp_path):
        # blank and whitespace-only rows are skipped
        body = self.HEADER + "\r\n1,100,10,50\r\n\r\n  \r\n"
        loaded = sm.load_dataset(self.write(tmp_path, body))
        assert loaded == [AuthorRecord(1, 100, 10, 50)]

    def test_missing_file(self):
        with pytest.raises(ValueError, match="neither a fixture name"):
            sm.load_dataset("/nonexistent/place.csv")

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValueError, match="empty file"):
            sm.load_dataset(self.write(tmp_path, ""))

    def test_bad_header(self, tmp_path):
        with pytest.raises(ValueError, match="row 1"):
            sm.load_dataset(self.write(tmp_path, "a,b,c,d\n1,2,3,4\n"))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(ValueError, match="row 2"):
            sm.load_dataset(self.write(tmp_path, self.HEADER + "\n1,100,10\n"))

    def test_non_integer_cell_location(self, tmp_path):
        body = self.HEADER + "\n1,100,ten,50\n"
        with pytest.raises(ValueError, match=r"row 2, column 3"):
            sm.load_dataset(self.write(tmp_path, body))

    def test_invariant_violation_from_csv(self, tmp_path):
        body = self.HEADER + "\n1,99,10,50\n"
        with pytest.raises(ValueError, match="h_index"):
            sm.load_dataset(self.write(tmp_path, body))


class TestKappa:
    def test_published_examples(self):
        assert sm.kappa(sm.load_dataset("mathematics")[0]) == pytest.approx(6.15, abs=0.005)
        assert sm.kappa(sm.load_dataset("biostatistics")[3]) == pytest.approx(4.69, abs=0.005)

    def test_unit(self):
        assert sm.kappa(AuthorRecord(1, 1, 1, 1)) == 1.0

    def test_h_zero_undefined(self):
        with pytest.raises(ValueError, match="h_index = 0"):
            sm.kappa(AuthorRecord(1, 100, 0, 50))


class TestSummary:
    def test_physics_h_column(self):
        mean, sd = sm.summary(r.h_index for r in sm.load_dataset("physics"))
        assert mean == pytest.approx(198.2, abs=0.05)
        assert sd == pytest.approx(21.73, abs=0.01)
        # the n-1 convention is forced by the published 21.73: the n
        # denominator would give ~20.62
        assert abs(sd - 20.62) > 0.5

    def test_mathematics_h_column(self):
        mean, sd = sm.summary(r.h_index for r in sm.load_dataset("mathematics"))
        assert mean == pytest.approx(99.3, abs=0.05)
        assert sd == pytest.approx(66.45, abs=0.01)

    def test_constant_sequence(self):
        mean, sd = sm.summary([5, 5, 5])
        assert (mean, sd) == (5.0, 0.0)

    def test_length_check(self):
        with pytest.raises(ValueError):
            sm.summary([5])


class TestPearson:
    def test_identity(self):
        assert sm.pearson([1, 2, 3, 9], [1, 2, 3, 9]) == 1.0

    def test_negation(self):
        assert sm.pearson([1, 2, 3, 9], [-1, -2, -3, -9]) == -1.0

    def test_published_value(self):
        rows = sm.load_dataset("mathematics")
        r = sm.pearson([x.total_citations for x in rows], [x.h_index for x in rows])
        assert r == pytest.approx(0.94, abs=0.01)

    def test_degenerate(self):
        with pytest.raises(ValueError, match="zero variance"):
            sm.pearson([1, 1, 1], [1, 2, 3])

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            sm.pearson([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            sm.pearson([1], [2])


class TestReport:
    def test_mathematics(self):
        rep = sm.report(sm.load_dataset("mathematics"))
        assert rep.rho1 == pytest.approx(0.94, abs=0.01)
        assert rep.rho2 == pytest.approx(-0.23, abs=0.01)
        assert rep.kappa_le_5_count == 0
        assert rep.kappa_5_6_count == 0
        assert min(rep.kappa) > 6.0  # no kappa at or below 6 in this listing
        assert rep.h_mean == pytest.approx(99.3, abs=0.05)

    def test_biostatistics(self):
        rep = sm.report(sm.load_dataset("biostatistics"))
        assert rep.rho1 == pytest.approx(0.702, abs=0.01)
        # the published 0 is a rounded value; +-0.05 per the rounding ledger
        assert rep.rho2 == pytest.approx(0.0, abs=0.05)
        assert rep.kappa_le_5_count == 1
        assert rep.kappa_5_6_count == 2

    def test_physics(self):
        rep = sm.report(sm.load_dataset("physics"))
        assert rep.rho1 == pytest.approx(0.36, abs=0.01)
        assert rep.rho2 == pytest.approx(-0.57, abs=0.01)
        assert rep.kappa_le_5_count == 1
        assert rep.kappa_5_6_count == 6
        low = [k for k in rep.kappa if k <= 5.0]
        assert len(low) == 1 and low[0] == pytest.approx(4.88, abs=0.005)

    def test_frozen_full_precision(self):
        rep = sm.report(sm.load_dataset("physics"))
        assert rep.h_sample_sd == pytest.approx(21.7297, abs=1e-4)
        assert rep.rho1 == pytest.approx(0.35735, abs=1e-4)
        assert rep.rho2 == pytest.approx(-0.57292, abs=1e-4)

    def test_permutation_invariant_summary(self):
        rows = sm.load_dataset("biostatistics")
        forward = sm.report(rows)
        backward = sm.report(list(reversed(rows)))
        assert forward.h_mean == backward.h_mean  # fsum: exactly rounded
        assert forward.rho1 == pytest.approx(backward.rho1, abs=1e-12)
        assert forward.rho2 == pytest.approx(backward.rho2, abs=1e-12)
        assert forward.kappa_le_5_count == backward.kappa_le_5_count
        assert forward.kappa == tuple(reversed(backward.kappa))

    def test_identical_records_degenerate(self):
        rows = [AuthorRecord(1, 100, 10, 50), AuthorRecord(2, 100, 10, 50)]
        with pytest.raises(ValueError, match="zero variance"):
            sm.report(rows)

    def test_needs_two_records(self):
        with pytest.raises(ValueError):
            sm.report([AuthorRecord(1, 100, 10, 50)])

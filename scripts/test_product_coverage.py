#!/usr/bin/env python3
"""Unit tests for product_coverage.py (run in CI next to the other script tests).

Reads the committed gcov-JSON fixture (product_coverage_fixture.json: two
translation units over a made-up src/abft/demo) and checks the gate's three
rules — a function whose entry count is 0 but whose body line ran counts as
reached, an unlisted unreached function fails, and a stale allow-list entry
fails whether its function is reached now or gone — plus the name keys the
allow-list is written in.
"""

import io
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import product_coverage  # noqa: E402

FIXTURE = Path(__file__).resolve().parent / "product_coverage_fixture.json"
A_CPP = "src/abft/demo/a.cpp"
INLINE_HPP = "src/abft/demo/inline.hpp"
ALLOW_KEPT = (f"{A_CPP} abft::demo::kept_oracle test-reference\n"
              f"{A_CPP} abft::demo::unreached_long paper-theory\n")


def coverage():
    cov = product_coverage.Coverage()
    for doc in product_coverage.read_documents(FIXTURE):
        product_coverage.merge_document(cov, doc, Path("/repo"))
    return cov


class ProductCoverageTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def run_gate(self, allow_text):
        allow = Path(self.tmp.name) / "allow.txt"
        allow.write_text(allow_text)
        out = io.StringIO()
        with redirect_stdout(out):
            code = product_coverage.main(["--gcov-json", str(FIXTURE), "--root", "/repo",
                                          "--allow", str(allow)])
        return code, out.getvalue()

    def function(self, cov, name):
        return next(fn for fn in cov.functions.values() if fn.name == name)

    def test_hit_body_line_reaches_a_function_whose_entry_count_is_zero(self):
        # inlined_helper's entry count is 0 in both units; abft_run's unit
        # ran its line 12 inlined into a caller.
        cov = coverage()
        self.assertTrue(cov.reached(self.function(cov, "abft::demo::inlined_helper")))
        self.assertFalse(cov.reached(self.function(cov, "abft::demo::unreached_long")))
        code, out = self.run_gate(ALLOW_KEPT)
        self.assertEqual(code, 0, out)
        self.assertNotIn("UNREACHED", out)
        self.assertNotIn("STALE", out)

    def test_only_src_files_count(self):
        cov = coverage()
        self.assertEqual(sorted(cov.line_counts), [A_CPP, INLINE_HPP])
        self.assertEqual(cov.line_totals(), (4, 11))

    def test_unlisted_unreached_function_fails_the_gate(self):
        code, out = self.run_gate(f"{A_CPP} abft::demo::kept_oracle test-reference\n")
        self.assertEqual(code, 1)
        self.assertIn(f"UNREACHED {A_CPP}:22-31 abft::demo::unreached_long", out)
        # Below eight lines a function is not gated; an entry covers its lambdas.
        self.assertNotIn("short_unreached", out)
        self.assertIn(f"allowed (test-reference) {A_CPP}:39-46 abft::demo::kept_oracle::{{lambda}}",
                      out)
        self.assertEqual(out.count("UNREACHED"), 1)

    def test_stale_entry_for_a_reached_function_fails_the_gate(self):
        code, out = self.run_gate(ALLOW_KEPT +
                                  f"{INLINE_HPP} abft::demo::inlined_helper bench-only\n")
        self.assertEqual(code, 1)
        self.assertIn("STALE allow-list line 3", out)
        self.assertIn("abft::demo::inlined_helper", out)

    def test_stale_entry_for_a_gone_function_fails_the_gate(self):
        code, out = self.run_gate(ALLOW_KEPT + f"{A_CPP} abft::demo::deleted bench-only\n")
        self.assertEqual(code, 1)
        self.assertIn("STALE allow-list line 3", out)

    def test_allow_list_rejects_unknown_reasons_and_short_lines(self):
        with self.assertRaises(ValueError):
            product_coverage.parse_allow_list(f"{A_CPP} abft::demo::kept_oracle because\n")
        with self.assertRaises(ValueError):
            product_coverage.parse_allow_list(f"{A_CPP} test-reference\n")
        entries = product_coverage.parse_allow_list(
            "# comment\n\n" + f"{A_CPP} abft::demo::kept_oracle test-reference  # why\n")
        self.assertEqual([(e.name, e.reason, e.line_number) for e in entries],
                         [("abft::demo::kept_oracle", "test-reference", 3)])

    def test_function_keys(self):
        key = product_coverage.function_key
        cases = {
            "abft::linalg::cholesky(abft::linalg::Matrix const&)": "abft::linalg::cholesky",
            "abft::agg::GradientBatch::pack(std::span<abft::linalg::Vector const, "
            "18446744073709551615ul>)": "abft::agg::GradientBatch::pack",
            "std::ostream& abft::linalg::operator<<(std::ostream&, abft::linalg::Matrix const&)":
                "abft::linalg::operator<<",
            "abft::linalg::operator*(abft::linalg::Matrix const&, abft::linalg::Matrix const&)":
                "abft::linalg::operator*",
            "void abft::agg::detail::lane_pass<4>(abft::agg::GradientBatch const&, int)":
                "abft::agg::detail::lane_pass",
            "abft::util::(anonymous namespace)::Parser::fail[abi:cxx11](std::string const&) const":
                "abft::util::{anonymous}::Parser::fail",
            "abft::core::certify_resilience(abft::core::SubsetSolver const&, int)"
            "::{lambda(std::vector<int, std::allocator<int> > const&)#1}::operator()"
            "(std::vector<int, std::allocator<int> > const&) const":
                "abft::core::certify_resilience::{lambda}",
            "main": "main",
        }
        for demangled, expected in cases.items():
            self.assertEqual(key(demangled), expected, demangled)


if __name__ == "__main__":
    unittest.main()

/**
 * @file
 * The perf-diff core behind tools/aosd_diff: flattening of numeric
 * JSON leaves to stable paths, tolerance handling, detection of
 * missing/added paths — and the golden-profile check: the checked-in
 * tests/expected_profile.json diffs clean against itself, and a
 * perturbed copy is flagged with the offending path named.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <sstream>

#include "study/perfdiff.hh"

using namespace aosd;

namespace
{

Json
parse(const std::string &text)
{
    std::string error;
    Json doc = Json::parse(text, &error);
    EXPECT_TRUE(error.empty()) << error;
    return doc;
}

Json
loadGoldenProfile()
{
    std::string path = std::string(AOSD_SOURCE_DIR) +
                       "/tests/expected_profile.json";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str());
}

TEST(PerfDiff, FlattensNumericLeavesToDottedPaths)
{
    Json doc = parse(R"({
        "a": {"b": 1, "c": [10, 20]},
        "s": "skip me",
        "flag": true,
        "nothing": null,
        "top": 3.5
    })");
    auto leaves = flattenNumericLeaves(doc);
    ASSERT_EQ(leaves.size(), 4u);
    EXPECT_EQ(leaves[0].path, "a.b");
    EXPECT_DOUBLE_EQ(leaves[0].value, 1.0);
    EXPECT_EQ(leaves[1].path, "a.c.0");
    EXPECT_EQ(leaves[2].path, "a.c.1");
    EXPECT_DOUBLE_EQ(leaves[2].value, 20.0);
    EXPECT_EQ(leaves[3].path, "top");
}

TEST(PerfDiff, NonFiniteLeavesFlattenAsTheirDumpDoes)
{
    Json doc = Json::object();
    doc.set("pos_inf", Json(std::numeric_limits<double>::infinity()));
    doc.set("neg_inf", Json(-std::numeric_limits<double>::infinity()));
    doc.set("nan", Json(std::numeric_limits<double>::quiet_NaN()));
    Json arr = Json::array();
    arr.push(Json(1.5));
    arr.push(Json(std::numeric_limits<double>::infinity()));
    doc.set("arr", std::move(arr));

    PerfDiff diff = diffPerfDocs(doc, doc, 0.01);
    EXPECT_TRUE(diff.ok());
    EXPECT_EQ(diff.compared, 1u);

    auto leaves = flattenNumericLeaves(doc);
    auto dumped = flattenNumericLeaves(parse(doc.dump()));
    ASSERT_EQ(leaves.size(), dumped.size());
    for (std::size_t i = 0; i < leaves.size(); ++i) {
        EXPECT_EQ(leaves[i].path, dumped[i].path);
        EXPECT_EQ(leaves[i].value, dumped[i].value);
    }
}

TEST(PerfDiff, IdenticalDocumentsDiffClean)
{
    Json doc = parse(R"({"x": 100, "y": {"z": 0.25}})");
    PerfDiff diff = diffPerfDocs(doc, doc, 0.01);
    EXPECT_TRUE(diff.ok());
    EXPECT_EQ(diff.compared, 2u);
    EXPECT_EQ(diff.regressions, 0u);
}

TEST(PerfDiff, ChangeBeyondToleranceNamesThePath)
{
    Json old_doc = parse(R"({"m": {"cycles": 100, "us": 5.0}})");
    Json new_doc = parse(R"({"m": {"cycles": 150, "us": 5.0}})");
    PerfDiff diff = diffPerfDocs(old_doc, new_doc, 0.01);
    EXPECT_FALSE(diff.ok());
    EXPECT_EQ(diff.regressions, 1u);
    const PerfDelta *bad = nullptr;
    for (const PerfDelta &d : diff.deltas)
        if (d.kind == PerfDelta::Kind::Changed)
            bad = &d;
    ASSERT_NE(bad, nullptr);
    EXPECT_EQ(bad->path, "m.cycles");
    EXPECT_DOUBLE_EQ(bad->oldValue, 100.0);
    EXPECT_DOUBLE_EQ(bad->newValue, 150.0);
}

TEST(PerfDiff, ChangeWithinToleranceIsClean)
{
    Json old_doc = parse(R"({"v": 100})");
    Json new_doc = parse(R"({"v": 104})");
    EXPECT_TRUE(diffPerfDocs(old_doc, new_doc, 0.05).ok());
    EXPECT_FALSE(diffPerfDocs(old_doc, new_doc, 0.01).ok());
}

TEST(PerfDiff, AbsoluteSlackCoversNearZeroValues)
{
    // 0 -> 1e-6 is a 100% relative change; the absolute floor keeps
    // numeric dust from failing the gate.
    Json old_doc = parse(R"({"v": 0})");
    Json new_doc = parse(R"({"v": 1e-06})");
    EXPECT_TRUE(diffPerfDocs(old_doc, new_doc, 0.01, 1e-3).ok());
    EXPECT_FALSE(diffPerfDocs(old_doc, new_doc, 0.01, 1e-9).ok());
}

TEST(PerfDiff, MissingAndAddedPathsAreRegressions)
{
    Json old_doc = parse(R"({"kept": 1, "dropped": 2})");
    Json new_doc = parse(R"({"kept": 1, "grown": 3})");
    PerfDiff diff = diffPerfDocs(old_doc, new_doc, 0.01);
    EXPECT_EQ(diff.compared, 1u);
    EXPECT_EQ(diff.regressions, 2u);
    bool saw_missing = false, saw_added = false;
    for (const PerfDelta &d : diff.deltas) {
        if (d.kind == PerfDelta::Kind::Missing) {
            EXPECT_EQ(d.path, "dropped");
            saw_missing = true;
        }
        if (d.kind == PerfDelta::Kind::Added) {
            EXPECT_EQ(d.path, "grown");
            saw_added = true;
        }
    }
    EXPECT_TRUE(saw_missing);
    EXPECT_TRUE(saw_added);
}

TEST(PerfDiff, PerKeyToleranceOverridesTheGlobalBand)
{
    // p999 of a small-sample histogram earns a wider band than the
    // rest of the document; the override keys on the leaf segment.
    Json old_doc =
        parse(R"({"cell": {"p50": 100, "p999": 100}, "p999": 100})");
    Json new_doc =
        parse(R"({"cell": {"p50": 100, "p999": 108}, "p999": 108})");

    // Global 1%: both p999 leaves regress.
    EXPECT_EQ(diffPerfDocs(old_doc, new_doc, 0.01).regressions, 2u);

    // Override p999 to 10%: clean, at depth and at the root.
    KeyTolerances tols = {{"p999", 0.10}};
    PerfDiff diff = diffPerfDocs(old_doc, new_doc, 0.01, 1e-9, tols);
    EXPECT_TRUE(diff.ok());
    EXPECT_EQ(diff.compared, 3u);

    // The override is scoped to its key: p50 keeps the global band.
    Json p50_moved =
        parse(R"({"cell": {"p50": 108, "p999": 100}, "p999": 100})");
    EXPECT_FALSE(
        diffPerfDocs(old_doc, p50_moved, 0.01, 1e-9, tols).ok());

    // First matching entry wins.
    KeyTolerances stacked = {{"p999", 0.10}, {"p999", 0.0001}};
    EXPECT_TRUE(
        diffPerfDocs(old_doc, new_doc, 0.01, 1e-9, stacked).ok());
}

TEST(PerfDiff, GoldenProfileDiffsCleanAgainstItself)
{
    Json golden = loadGoldenProfile();
    PerfDiff diff = diffPerfDocs(golden, golden, 0.01);
    EXPECT_TRUE(diff.ok());
    EXPECT_GT(diff.compared, 100u); // a real tree, not a stub
}

TEST(PerfDiff, PerturbedGoldenProfileIsFlaggedByPath)
{
    Json golden = loadGoldenProfile();

    // Deep-copy and bump one figure 50%.
    Json machines = golden.at("machines");
    Json cvax = machines.at("CVAX");
    Json ns = cvax.at("null_syscall");
    double cycles = ns.at("cycles_per_call").asNumber();
    ns.set("cycles_per_call", cycles * 1.5);
    cvax.set("null_syscall", std::move(ns));
    machines.set("CVAX", std::move(cvax));
    Json perturbed = golden;
    perturbed.set("machines", std::move(machines));

    PerfDiff diff = diffPerfDocs(golden, perturbed, 0.01);
    EXPECT_FALSE(diff.ok());
    ASSERT_EQ(diff.regressions, 1u);
    for (const PerfDelta &d : diff.deltas) {
        if (d.kind == PerfDelta::Kind::Changed) {
            EXPECT_EQ(d.path,
                      "machines.CVAX.null_syscall.cycles_per_call");
        }
    }
}

TEST(PerfDiff, TimeseriesArraysDiffElementWise)
{
    // The timeseries.json shape: parallel per-sample arrays. A single
    // moved sample must be named with its element index in the path;
    // equal-length identical arrays must diff clean.
    Json old_doc = parse(R"({
        "table7": {"cells": {"spellcheck_1.mach25": {"timeseries": {
            "cycles": [100, 200, 300],
            "series": {"tlb_misses_per_kcycle": [4.0, 5.0, 6.0]}
        }}}}
    })");
    Json new_doc = parse(R"({
        "table7": {"cells": {"spellcheck_1.mach25": {"timeseries": {
            "cycles": [100, 200, 300],
            "series": {"tlb_misses_per_kcycle": [4.0, 9.0, 6.0]}
        }}}}
    })");

    PerfDiff clean = diffPerfDocs(old_doc, old_doc, 0.01);
    EXPECT_TRUE(clean.ok());
    EXPECT_EQ(clean.compared, 6u);

    PerfDiff diff = diffPerfDocs(old_doc, new_doc, 0.01);
    EXPECT_FALSE(diff.ok());
    EXPECT_EQ(diff.regressions, 1u);
    bool named = false;
    for (const PerfDelta &d : diff.deltas)
        if (d.kind == PerfDelta::Kind::Changed) {
            EXPECT_EQ(d.path,
                      "table7.cells.spellcheck_1.mach25.timeseries."
                      "series.tlb_misses_per_kcycle.1");
            EXPECT_DOUBLE_EQ(d.newValue, 9.0);
            named = true;
        }
    EXPECT_TRUE(named);
}

TEST(PerfDiff, ShorterArrayReportsMissingTailElements)
{
    Json old_doc = parse(R"({"rates": [1.0, 2.0, 3.0]})");
    Json new_doc = parse(R"({"rates": [1.0, 2.0]})");
    PerfDiff diff = diffPerfDocs(old_doc, new_doc, 0.01);
    EXPECT_FALSE(diff.ok());
    bool missing_tail = false;
    for (const PerfDelta &d : diff.deltas)
        if (d.kind == PerfDelta::Kind::Missing &&
            d.path == "rates.2")
            missing_tail = true;
    EXPECT_TRUE(missing_tail);
}

TEST(PerfDiff, StructuralMismatchNamesTheFirstDivergentPath)
{
    Json old_doc = parse(R"({
        "machines": {"CVAX": {"counters": {"loads": 1, "stores": 2}}},
        "rates": [1.0, 2.0]
    })");

    // Identical shapes (even with different values) are clean.
    Json same = parse(R"({
        "machines": {"CVAX": {"counters": {"loads": 9, "stores": 8}}},
        "rates": [5.0, 6.0]
    })");
    EXPECT_FALSE(firstStructuralMismatch(old_doc, same).found);

    // A deleted key is named by its parent's dotted path.
    Json dropped = parse(R"({
        "machines": {"CVAX": {"counters": {"stores": 2}}},
        "rates": [1.0, 2.0]
    })");
    StructuralMismatch m = firstStructuralMismatch(old_doc, dropped);
    ASSERT_TRUE(m.found);
    EXPECT_EQ(m.path, "machines.CVAX.counters");
    EXPECT_NE(m.description.find("'loads'"), std::string::npos)
        << m.description;
    EXPECT_NE(m.description.find("missing from the new document"),
              std::string::npos)
        << m.description;

    // An added key and a kind change are named too.
    Json added = parse(R"({
        "machines": {"CVAX": {"counters":
            {"loads": 1, "stores": 2, "flushes": 0}}},
        "rates": [1.0, 2.0]
    })");
    m = firstStructuralMismatch(old_doc, added);
    ASSERT_TRUE(m.found);
    EXPECT_NE(m.description.find("only in the new document"),
              std::string::npos)
        << m.description;

    Json retyped = parse(R"({
        "machines": {"CVAX": {"counters": {"loads": "1", "stores": 2}}},
        "rates": [1.0, 2.0]
    })");
    m = firstStructuralMismatch(old_doc, retyped);
    ASSERT_TRUE(m.found);
    EXPECT_EQ(m.path, "machines.CVAX.counters.loads");
    EXPECT_NE(m.description.find("number -> string"),
              std::string::npos)
        << m.description;

    // Array length changes name the array, not an element.
    Json shorter = parse(R"({
        "machines": {"CVAX": {"counters": {"loads": 1, "stores": 2}}},
        "rates": [1.0]
    })");
    m = firstStructuralMismatch(old_doc, shorter);
    ASSERT_TRUE(m.found);
    EXPECT_EQ(m.path, "rates");
    EXPECT_NE(m.description.find("array length 2 -> 1"),
              std::string::npos)
        << m.description;
}

} // namespace

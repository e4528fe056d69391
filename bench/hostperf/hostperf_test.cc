/**
 * @file
 * Tests of the host-performance benchmark's own logic: order
 * statistics (against values Python's statistics module gives), span
 * self time, metric-name and unit validity, argument rejection, the
 * result line, the workload table and the fastest-cells reduction.
 */

#include <gtest/gtest.h>

#include "hostperf.h"
#include "workloads.h"

namespace glsc {
namespace hostperf {
namespace {

TEST(HostperfStats, MedianOddEvenEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(HostperfStats, QuartilesMatchPythonExclusive)
{
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    Quartiles q = quartiles({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    q = quartiles({16, 8, 4, 2, 1});
    EXPECT_DOUBLE_EQ(q.q1, 1.5);
    EXPECT_DOUBLE_EQ(q.q3, 12.0);
    // Two values extrapolate: statistics.quantiles([1, 2], n=4) ==
    // [0.75, 1.5, 2.25]
    q = quartiles({2, 1});
    EXPECT_DOUBLE_EQ(q.q1, 0.75);
    EXPECT_DOUBLE_EQ(q.q3, 2.25);
    q = quartiles({7});
    EXPECT_DOUBLE_EQ(q.q1, 7.0);
    EXPECT_DOUBLE_EQ(q.q3, 7.0);
}

TEST(HostperfSpans, SelfTimeSubtractsChildren)
{
    SpanLog log;
    int root = log.add("workload", -1, 0.0, 10.0);
    int cell = log.add("cell", root, 1.0, 9.0);
    log.add("synth", cell, 1.0, 2.0);
    log.add("run", cell, 3.0, 8.0);
    log.add("artifact-write", root, 9.0, 9.5);
    EXPECT_DOUBLE_EQ(log.selfTime(root), 10.0 - 8.0 - 0.5);
    EXPECT_DOUBLE_EQ(log.selfTime(cell), 8.0 - 1.0 - 5.0);
    EXPECT_DOUBLE_EQ(log.selfTime(2), 1.0); // leaf: its whole duration
}

TEST(HostperfSpans, OverlappingAndOverhangingChildrenCountOnce)
{
    SpanLog log;
    int root = log.add("root", -1, 0.0, 10.0);
    log.add("a", root, -1.0, 4.0); // clipped to [0, 4]
    log.add("b", root, 2.0, 6.0);  // overlaps a on [2, 4]
    log.add("c", root, 9.0, 12.0); // clipped to [9, 10]
    EXPECT_DOUBLE_EQ(log.selfTime(root), 10.0 - 6.0 - 1.0);
}

TEST(HostperfSpans, BeginEndNestAndSerialize)
{
    SpanLog log;
    int root = log.begin("w", -1);
    int child = log.begin("c", root);
    log.end(child);
    log.end(root);
    const Span &r = log.spans()[0];
    const Span &c = log.spans()[1];
    EXPECT_EQ(c.parent, root);
    EXPECT_LE(r.start, c.start);
    EXPECT_LE(c.end, r.end);
    EXPECT_GE(log.selfTime(root), 0.0);
    std::string json = log.toJson();
    EXPECT_NE(json.find("\"name\": \"c\""), std::string::npos);
    EXPECT_NE(json.find("\"parent\": 0"), std::string::npos);
}

TEST(HostperfNames, MetricNamesAndUnits)
{
    EXPECT_TRUE(validMetricName("wall_s"));
    EXPECT_TRUE(validMetricName("mem.l1_lookup_ns"));
    EXPECT_TRUE(validMetricName("0-a.b_c"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName(".leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/no"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));

    EXPECT_TRUE(validUnit("s"));
    EXPECT_TRUE(validUnit("M/s"));
    EXPECT_TRUE(validUnit("%"));
    EXPECT_TRUE(validUnit("fraction"));
    EXPECT_FALSE(validUnit(""));
    EXPECT_FALSE(validUnit("per second"));
    EXPECT_FALSE(validUnit(std::string(17, 'x')));
}

TEST(HostperfNames, EveryReportedMetricIsValid)
{
    PassResult p;
    for (const Metric &m : countMetrics(p)) {
        EXPECT_TRUE(validMetricName(m.name)) << m.name;
        EXPECT_TRUE(validUnit(m.unit)) << m.unit;
    }
    for (const WorkloadSpec &w : workloadSpecs()) {
        EXPECT_TRUE(validMetricName(w.name)) << w.name;
        EXPECT_FALSE(w.cells.empty()) << w.name;
    }
}

const std::vector<std::string> kKnown = {"paper-4x4", "quick-1x1-widths"};

bool
parses(std::vector<std::string> argv, Args *out = nullptr)
{
    Args a;
    std::string err;
    bool ok = parseArgs(argv, kKnown, a, err);
    EXPECT_EQ(ok, err.empty()) << err;
    if (out)
        *out = a;
    return ok;
}

std::vector<std::string>
argvWith(const std::string &flag, const std::string &value)
{
    std::vector<std::string> argv = {"--workload", "paper-4x4", "--seed",
                                     "7", "--seconds", "10", "--trace",
                                     "1", "--out-dir", "out"};
    for (std::size_t i = 0; i < argv.size(); i += 2) {
        if (argv[i] == flag)
            argv[i + 1] = value;
    }
    return argv;
}

TEST(HostperfArgs, AcceptsAWellFormedCommandLine)
{
    Args a;
    ASSERT_TRUE(parses(argvWith("--seed", "18446744073709551615"), &a));
    EXPECT_EQ(a.workload, "paper-4x4");
    EXPECT_EQ(a.seed, 18446744073709551615ull);
    EXPECT_EQ(a.seconds, 10);
    EXPECT_TRUE(a.trace);
    EXPECT_EQ(a.outDir, "out");
}

TEST(HostperfArgs, RejectsMalformedSeeds)
{
    for (const char *bad : {"xyz", "", "-1", "+1", "1.5", "7x", " 7",
                            "18446744073709551616", "0x10"})
        EXPECT_FALSE(parses(argvWith("--seed", bad))) << bad;
}

TEST(HostperfArgs, RejectsBadWorkloadSecondsAndTrace)
{
    EXPECT_FALSE(parses(argvWith("--workload", "paper")));
    EXPECT_FALSE(parses(argvWith("--workload", "dram-weak-observed")));
    for (const char *bad : {"0", "-5", "3601", "ten", "1e1"})
        EXPECT_FALSE(parses(argvWith("--seconds", bad))) << bad;
    for (const char *bad : {"2", "yes", "", "01"})
        EXPECT_FALSE(parses(argvWith("--trace", bad))) << bad;
    EXPECT_FALSE(parses(argvWith("--out-dir", "")));
}

TEST(HostperfArgs, RejectsMissingRepeatedAndUnknownFlags)
{
    std::vector<std::string> argv = argvWith("", "");
    EXPECT_FALSE(parses({argv.begin(), argv.end() - 2}));  // no --out-dir
    EXPECT_FALSE(parses({argv.begin(), argv.end() - 1}));  // dangling flag
    std::vector<std::string> twice = argv;
    twice.insert(twice.end(), {"--seed", "8"});
    EXPECT_FALSE(parses(twice));
    std::vector<std::string> unknown = argv;
    unknown.insert(unknown.end(), {"--quick", "1"});
    EXPECT_FALSE(parses(unknown));
    EXPECT_FALSE(parses({}));
}

TEST(HostperfResult, LineHasExactlyTheContractKeys)
{
    std::string line =
        resultLine(true, 84, 0, {{"wall_s", "s", 1.25}, {"x", "M/s", 3}});
    EXPECT_EQ(line,
              "{\"correct\": true, \"attempted\": 84, \"failed\": 0, "
              "\"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": "
              "\"s\"}, \"x\": {\"value\": 3, \"unit\": \"M/s\"}}}");
    EXPECT_NE(resultLine(false, 1, 1, {}).find("\"correct\": false"),
              std::string::npos);
}

TEST(HostperfWorkloads, TableMatchesTheDocumentedShapes)
{
    ASSERT_NE(findWorkload("paper-4x4"), nullptr);
    ASSERT_NE(findWorkload("dram-weak-observed"), nullptr);
    const WorkloadSpec *quick = findWorkload("quick-1x1-widths");
    ASSERT_NE(quick, nullptr);
    EXPECT_EQ(quick->cells.size(), 84u); // 7 kernels x 2 x 3 widths x 2
    EXPECT_EQ(findWorkload("nope"), nullptr);
    EXPECT_EQ(workloadNames().size(), 3u);
}

TEST(HostperfWorkloads, FastestCellsTakesEachTimingsMinimum)
{
    auto pass = [](double a, double b, double art, double wall) {
        PassResult p;
        p.cells.resize(2);
        p.cells[0].runS = a;
        p.cells[0].synthS = a / 10;
        p.cells[1].runS = b;
        p.cells[1].constructS = b / 10;
        p.cells[1].stats.cycles = 7;
        p.artifactS = art;
        p.wallS = wall;
        return p;
    };
    PassResult best = fastestCells(
        {pass(3, 1, 0.5, 9), pass(1, 4, 0.25, 8), pass(2, 2, 0.75, 7)});
    EXPECT_DOUBLE_EQ(best.cells[0].runS, 1);
    EXPECT_DOUBLE_EQ(best.cells[0].synthS, 0.1);
    EXPECT_DOUBLE_EQ(best.cells[1].runS, 1);
    EXPECT_DOUBLE_EQ(best.cells[1].constructS, 0.1);
    EXPECT_DOUBLE_EQ(best.artifactS, 0.25);
    EXPECT_DOUBLE_EQ(best.wallS, 7);
    EXPECT_DOUBLE_EQ(best.workS(), 2.25);
    EXPECT_EQ(best.cycles(), 7u);
}

} // namespace
} // namespace hostperf
} // namespace glsc

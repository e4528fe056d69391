/**
 * @file
 * glsc-hostperf: the host-performance benchmark of the simulator.
 *
 *   glsc-hostperf --workload <name> --seed <n> --seconds <s>
 *                 --trace <0|1> --out-dir <dir>
 *
 * Runs the workload's cells back to back (a closed loop on one
 * thread) in repeated passes for about <s> seconds.  --trace 0 prints
 * the end-to-end metrics; --trace 1 alternates untraced passes with
 * span-recording ones and prints the per-layer metrics.  The last
 * stdout line is one JSON object {"correct", "attempted", "failed",
 * "metrics"}; pass artifacts, spans and that object are also written
 * under <dir>.  See README.md for the workloads and metrics.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "hostperf.h"
#include "obs/artifact.h"
#include "sim/exit_codes.h"
#include "sim/log.h"
#include "workloads.h"

#ifndef HOSTPERF_BUILD_TYPE
#define HOSTPERF_BUILD_TYPE "unknown"
#endif

using namespace glsc;
using namespace glsc::hostperf;

namespace {

#ifdef GLSC_CHECK_ENABLED
constexpr bool kCheckBuild = true;
#else
constexpr bool kCheckBuild = false;
#endif

#ifdef NDEBUG
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

/** Median over passes of @p get. */
template <typename Fn>
double
medianOf(const std::vector<PassResult> &passes, Fn get)
{
    std::vector<double> v;
    for (const PassResult &p : passes)
        v.push_back(get(p));
    return median(v);
}

std::vector<Metric>
endToEnd(const std::vector<PassResult> &passes, std::uint64_t attempted,
         std::uint64_t failed)
{
    // The shared host switches speed every few seconds, so a median
    // over passes follows the share of slow seconds in the run; each
    // cell's fastest pass does not.  Set-up stays a median over passes.
    PassResult best = fastestCells(passes);
    return {
        {"wall_s", "s", best.workS()},
        {"sim_mips", "M/s",
         double(best.instructions()) / best.workS() / 1e6},
        {"sim_mcps", "M/s", double(best.cycles()) / best.workS() / 1e6},
        {"setup_s", "s", medianOf(passes, [](const PassResult &p) {
             return p.setupS();
         })},
        {"peak_rss_mb", "MiB", peakRssMb()},
        {"runs_ok_frac", "fraction",
         1.0 - double(failed) / double(attempted)},
    };
}

std::vector<Metric>
perLayer(const WorkloadSpec &w, const std::vector<PassResult> &plain,
         const std::vector<PassResult> &traced,
         const std::vector<int> &roots, const SpanLog &spans,
         std::vector<Metric> probes)
{
    // The run span repeats the cell's set-up inside runBenchmark; its
    // remainder is the engine loop plus golden verification.
    auto simulate = [](const PassResult &p) {
        double s = 0.0;
        for (const CellResult &c : p.cells)
            s += std::max(0.0, c.runS - c.synthS - c.constructS);
        return s;
    };
    // The leaves are the timed phases; what the pass and cell spans
    // hold outside their children is the uncovered remainder.
    const std::vector<Span> &all = spans.spans();
    auto hasChildren = [&all](int id) {
        return std::any_of(all.begin(), all.end(),
                           [id](const Span &s) { return s.parent == id; });
    };
    std::vector<double> uncovered;
    for (int root : roots) {
        const Span &r = all[static_cast<std::size_t>(root)];
        double u = spans.selfTime(root);
        for (const Span &c : all) {
            if (c.parent == root && hasChildren(c.id))
                u += spans.selfTime(c.id);
        }
        uncovered.push_back(u / (r.end - r.start));
    }
    PassResult best = fastestCells(traced);
    double plainWall = fastestCells(plain).wallS;

    std::vector<Metric> m = {
        {"sim.simulate_s", "s", simulate(best)},
        {"sim.host_ns_per_cycle", "ns",
         simulate(best) / double(best.cycles()) * 1e9},
        {"cpu.host_ns_per_instr", "ns",
         simulate(best) / double(best.instructions()) * 1e9},
        {"sim.construct_s", "s", best.constructS()},
        {"workloads.synth_s", "s", best.synthS()},
        {"kernels.run_s", "s", best.runS()},
        {"obs.artifact_write_s", "s", best.artifactS},
        {"trace.overhead_frac", "fraction",
         (best.wallS - plainWall) / plainWall},
        {"trace.uncovered_frac", "fraction", median(uncovered)},
    };
    m.insert(m.end(), probes.begin(), probes.end());
    std::vector<Metric> counts = countMetrics(traced.front());
    m.insert(m.end(), counts.begin(), counts.end());
    std::vector<Metric> model = modelMetrics(w, traced.front());
    m.insert(m.end(), model.begin(), model.end());
    return m;
}

void
printCells(const WorkloadSpec &w, const PassResult &p)
{
    std::printf("%-22s %12s %12s %9s %9s %9s\n", "cell", "cycles",
                "instr", "synth_ms", "constr_ms", "run_ms");
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
        const CellSpec &c = w.cells[i];
        const CellResult &r = p.cells[i];
        std::printf("%-5s %c %-4s w%-2d %-6s %12llu %12llu %9.2f %9.2f "
                    "%9.2f\n",
                    c.kernel.c_str(), c.dataset == 0 ? 'A' : 'B',
                    schemeName(c.scheme), c.width, r.ok ? "ok" : "FAIL",
                    (unsigned long long)r.stats.cycles,
                    (unsigned long long)r.stats.totalInstructions(),
                    r.synthS * 1e3, r.constructS * 1e3, r.runS * 1e3);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    std::string err;
    if (!parseArgs(std::vector<std::string>(argv + 1, argv + argc),
                   workloadNames(), args, err)) {
        std::fprintf(stderr,
                     "glsc-hostperf: %s\nusage: %s --workload "
                     "paper-4x4|quick-1x1-widths|dram-weak-observed "
                     "--seed <n> --seconds <1..3600> --trace 0|1 "
                     "--out-dir <dir>\n",
                     err.c_str(), argv[0]);
        return kExitUsage;
    }
    const WorkloadSpec &w = *findWorkload(args.workload);

    std::printf("glsc-hostperf: workload=%s seed=%llu seconds=%d trace=%d "
                "build=%s glsc_check=%s optimized=%s compiler=\"%s\"\n",
                w.name.c_str(), (unsigned long long)args.seed, args.seconds,
                args.trace ? 1 : 0, HOSTPERF_BUILD_TYPE,
                kCheckBuild ? "on" : "off", kOptimized ? "yes" : "no",
                __VERSION__);
    if (kCheckBuild || !kOptimized) {
        std::fprintf(stderr, "glsc-hostperf: refusing to time a build "
                             "with GLSC_CHECK on or without NDEBUG; "
                             "build Release\n");
        return kExitFatal;
    }

    const double start = hostSeconds();
    const double budget = args.seconds;
    std::vector<Metric> probes;
    if (args.trace)
        probes = layerProbes();

    // Closed loop: whole passes until the next one would overrun the
    // budget.  With --trace 1, an untraced and a traced pass form a
    // pair, in alternating order so drift hits both sides alike.
    std::vector<PassResult> plain, traced;
    std::vector<int> roots;
    SpanLog spans;
    std::string fingerprint, mismatch;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    auto record = [&](PassResult p, bool isTraced) {
        std::string fp = p.fingerprint();
        if (fingerprint.empty())
            fingerprint = fp;
        else if (fp != fingerprint && mismatch.empty())
            mismatch = strprintf("pass %zu (%s) differs from pass 0",
                                 plain.size() + traced.size(),
                                 isTraced ? "traced" : "untraced");
        attempted += p.cells.size();
        failed += p.failed();
        for (const CellResult &c : p.cells) {
            if (!c.ok && failures.size() < 10)
                failures.push_back(c.failure);
        }
        (isTraced ? traced : plain).push_back(std::move(p));
    };
    for (int round = 0;; ++round) {
        bool tracedFirst = args.trace && round % 2 == 1;
        for (int k = 0; k < (args.trace ? 2 : 1); ++k) {
            bool isTraced = args.trace && (k == 0) == tracedFirst;
            SpanLog *log = nullptr;
            if (isTraced) {
                roots.push_back(static_cast<int>(spans.spans().size()));
                log = &spans;
            }
            record(runPass(w, args.seed, args.outDir, log), isTraced);
        }
        std::vector<double> roundWall;
        for (std::size_t i = 0; i < plain.size(); ++i) {
            roundWall.push_back(plain[i].wallS +
                             (args.trace ? traced[i].wallS : 0.0));
        }
        if (hostSeconds() - start + median(roundWall) > budget)
            break;
    }

    std::vector<Metric> metrics =
        args.trace ? perLayer(w, plain, traced, roots, spans, probes)
                   : endToEnd(plain, attempted, failed);

    printCells(w, plain.front());
    std::printf("passes: %zu untraced, %zu traced; cells attempted %llu, "
                "failed %llu; runs_failed_frac %.6f\n",
                plain.size(), traced.size(), (unsigned long long)attempted,
                (unsigned long long)failed,
                double(failed) / double(attempted));
    std::vector<double> work;
    std::printf("untraced pass work_s:");
    for (const PassResult &p : plain) {
        work.push_back(p.workS());
        std::printf(" %.4f", p.workS());
    }
    Quartiles q = quartiles(work);
    std::printf("\nwork_s median %.4f, quartiles %.4f..%.4f over %zu "
                "passes; fastest cells %.4f\n",
                median(work), q.q1, q.q3, work.size(),
                fastestCells(plain).workS());
    for (const std::string &f : failures)
        std::printf("FAILED %s\n", f.c_str());
    if (!mismatch.empty())
        std::printf("DETERMINISM TRIPWIRE: %s\n", mismatch.c_str());
    bool wellFormed = true;
    for (const Metric &m : metrics) {
        std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        wellFormed = wellFormed && std::isfinite(m.value) &&
                     validMetricName(m.name) && validUnit(m.unit);
    }
    if (!wellFormed) {
        std::fprintf(stderr, "glsc-hostperf: malformed metric\n");
        return kExitFatal;
    }

    bool correct = failed == 0 && mismatch.empty();
    std::string line = resultLine(correct, attempted, failed, metrics);
    std::string prefix = args.outDir + "/" + w.name;
    bool ok = atomicWriteFile(
        prefix + (args.trace ? ".result-trace.json" : ".result.json"),
        line + "\n");
    if (args.trace)
        ok = ok && atomicWriteFile(prefix + ".spans.json", spans.toJson());
    if (!ok) {
        std::fprintf(stderr, "glsc-hostperf: cannot write under %s\n",
                     args.outDir.c_str());
        return kExitFatal;
    }
    std::printf("%s\n", line.c_str());
    return kExitSuccess;
}

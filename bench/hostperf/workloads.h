/**
 * @file
 * The benchmark's workloads and the closed-loop pass that runs them:
 * one thread runs a workload's cells (kernel x dataset x scheme x
 * width) back to back, timing each call into the simulator's public
 * entry points from outside.
 */

#ifndef GLSC_BENCH_HOSTPERF_WORKLOADS_H_
#define GLSC_BENCH_HOSTPERF_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hostperf.h"
#include "config/config.h"
#include "kernels/common.h"

namespace glsc {
namespace hostperf {

/** One simulated run: a (kernel, dataset, scheme) at a SIMD width. */
struct CellSpec
{
    std::string kernel;
    int dataset = 0;
    Scheme scheme = Scheme::Base;
    int width = 4;
};

struct WorkloadSpec
{
    std::string name;
    double scale = 1.0;    //!< dataset scale passed to runBenchmark
    SystemConfig machine;  //!< every cell's config but its SIMD width
    /**
     * Attach a fresh Tracer + CountingSink and Analyzer to every cell,
     * add a ChromeTraceSink to cell 0, and write the Chrome trace and
     * findings with the pass's BENCH JSON.
     */
    bool observed = false;
    double paperSpeedup = 0.0; //!< paper's mean Base/GLSC at this size
    std::vector<CellSpec> cells;
};

/** paper-4x4, quick-1x1-widths, dram-weak-observed. */
const std::vector<WorkloadSpec> &workloadSpecs();
std::vector<std::string> workloadNames();
const WorkloadSpec *findWorkload(const std::string &name);

struct CellResult
{
    double synthS = 0.0;     //!< workloads/ generators for the cell
    double constructS = 0.0; //!< System::System for the cell's config
    double runS = 0.0;       //!< runBenchmark (its own set-up included)
    bool ok = false; //!< verified and SystemStats consistent
    std::string failure; //!< why not ok
    SystemStats stats;
    std::uint64_t traceEvents = 0;
    std::uint64_t findings = 0;
};

struct PassResult
{
    std::vector<CellResult> cells;
    double artifactS = 0.0; //!< statsToJson/benchDocToJson + writes
    double wallS = 0.0;     //!< whole pass, set-up probes included

    /** Sum of one CellResult timing over the cells. */
    double total(double CellResult::*field) const;
    double synthS() const { return total(&CellResult::synthS); }
    double constructS() const { return total(&CellResult::constructS); }
    double setupS() const { return synthS() + constructS(); }
    double runS() const { return total(&CellResult::runS); }
    /** Host seconds a user pays: runs plus artifact writes. */
    double workS() const { return runS() + artifactS; }
    std::uint64_t cycles() const;
    std::uint64_t instructions() const;
    std::uint64_t failed() const;
    /**
     * Every deterministic output of the pass (per-cell statsToJson,
     * trace-event and finding counts) for the determinism tripwire.
     */
    std::string fingerprint() const;
};

/**
 * Runs every cell of @p w once with inputs from @p seed, then writes
 * the pass's artifacts under @p outDir.  With @p spans, records the
 * workload -> cell -> {synth, construct, run} and artifact-write spans.
 */
PassResult runPass(const WorkloadSpec &w, std::uint64_t seed,
                   const std::string &outDir, SpanLog *spans);

/**
 * The fastest observation of every timing over @p passes (non-empty,
 * all of one workload): each cell's synth, construct and run seconds
 * and the pass's artifact and wall seconds are the minimum over the
 * passes, taken field by field.  Stats and counts come from the first
 * pass; the determinism tripwire holds them equal across passes.
 */
PassResult fastestCells(const std::vector<PassResult> &passes);

/** Host ns/op probes of single layers, each the median of 5 repeats. */
std::vector<Metric> layerProbes();

/** Simulated-machine results of one pass (deterministic). */
std::vector<Metric> modelMetrics(const WorkloadSpec &w,
                                 const PassResult &p);

/** SystemStats counts summed over a pass (deterministic). */
std::vector<Metric> countMetrics(const PassResult &p);

} // namespace hostperf
} // namespace glsc

#endif // GLSC_BENCH_HOSTPERF_WORKLOADS_H_
